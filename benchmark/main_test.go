package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"neat/internal/experiments"
)

// TestManifestMatchesTables keeps BENCHMARK.json equal to the tables the
// harness reports from, and inside the limits a benchmark manifest has.
func TestManifestMatchesTables(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(manifest(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("BENCHMARK.json differs from the harness tables; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := workloads(false)
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8 / 16 / 128", len(ws), len(endToEnd), len(perLayer))
	}
	for _, w := range ws {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.name)
		if !unit.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v out of range", d.name, d.unit, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.name, d.unit)
		}
	}
}

// TestSmoke runs every workload at toy scale through both passes: the
// metrics reported are exactly the declared ones, outputs verify, and two
// repetitions of one seed give identical simulated results.
func TestSmoke(t *testing.T) {
	spans := newSpanLog()
	for _, w := range workloads(true) {
		timed, err := timedPass(w, 3, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := tracedPassOf(w, 3, 0, 1, spans)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{timed, traced} {
			// audit compares the simulated results of every repetition.
			for _, p := range r.problems {
				t.Errorf("%s: %s", w.name, p)
			}
			defs := endToEnd
			if r.traced {
				defs = perLayer
			}
			if len(r.metrics) != len(defs) {
				t.Errorf("%s: %d metrics reported, %d declared", w.name, len(r.metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := r.metrics[d.name]; !ok {
					t.Errorf("%s: metric %s not reported", w.name, d.name)
				}
			}
			var line struct {
				Correct   bool
				Attempted uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.jsonLine()), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
				t.Errorf("%s: result line %s", w.name, r.jsonLine())
			}
		}
		for _, d := range endToEnd {
			if timed.metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, timed.metrics[d.name])
			}
		}
		if timed.reps < 2 {
			t.Errorf("%s: %d repetitions, want at least 2 to compare simulated results", w.name, timed.reps)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := spans.write(path); err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace.json: %v, %d events", err, len(trace.TraceEvents))
	}
}

// TestGeneratorsModelLoadgen pins the harness's generators (gen.go) to the
// client every other experiment models: on web_small's bed, one seed, the
// harness's model_krps and app.Loadgen's krps under Bed.Run agree within
// 1 % (the generators start staggered, Bed.Run's together). A change to
// app.Loadgen's request format or modeled costs that gen.go does not follow
// fails here.
func TestGeneratorsModelLoadgen(t *testing.T) {
	p := webSmall
	sm, err := p.run(1, repOpts{parent: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.NewBed(p.bedConfig(1, false))
	if err != nil {
		t.Fatal(err)
	}
	want := b.Run(p.warm, p.window)
	got := endToEndOf([]*sample{sm})["model_krps"]
	if want.Errors != 0 || sm.failed != 0 {
		t.Fatalf("errors: app.Loadgen %d, harness %d", want.Errors, sm.failed)
	}
	if math.Abs(got-want.KRPS) > 0.01*want.KRPS {
		t.Errorf("model_krps %.2f with the harness's generators, %.2f with app.Loadgen", got, want.KRPS)
	}
}
