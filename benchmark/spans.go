package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanLog records the harness's own spans — build, warm, window, each
// layer driver — in memory and writes them once, as a Chrome trace
// (chrome://tracing, Perfetto). A nil *spanLog records nothing, so the
// timed pass pays only a nil check.
type spanLog struct {
	origin time.Time
	spans  []hspan
}

type hspan struct {
	name     string
	workload string
	parent   int // index of the span that caused this one, -1 at the root
	start    time.Duration
	dur      time.Duration
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent and returns its handle.
func (l *spanLog) begin(workload, name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, hspan{
		name: name, workload: workload, parent: parent,
		start: time.Since(l.origin), dur: -1,
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].dur = time.Since(l.origin) - l.spans[id].start
}

// write renders the spans as complete ("X") events, one track per
// workload, microsecond timestamps.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	var events []event
	for i, sp := range l.spans {
		if sp.dur < 0 {
			continue
		}
		tid, ok := tids[sp.workload]
		if !ok {
			tid = len(tids) + 1
			tids[sp.workload] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": sp.workload}})
		}
		events = append(events, event{
			Name: sp.name, Cat: sp.workload, Ph: "X",
			Ts:  float64(sp.start.Nanoseconds()) / 1e3,
			Dur: float64(sp.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": i, "parent": sp.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
