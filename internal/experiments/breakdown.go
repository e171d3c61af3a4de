package experiments

import (
	"fmt"
	"strings"

	"neat/internal/core"
	"neat/internal/report"
	"neat/internal/stack"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// LatencyBreakdown runs the lighttpd-style workload with message tracing
// enabled and reports, per configuration, where a request's time goes:
// one row per hop of the message path (wire → NIC RX queue → driver →
// replica components → SYSCALL server → application), split into
// queueing (waiting for the hop to run) and processing (the hop's own
// execution) latency. This is the instrumented companion to the paper's
// latency figures: it shows *why* the mean and p99 are what they are.
//
// Tracing is enabled only inside this experiment; the default bench
// configurations run untraced, and the traced run is deterministic —
// sequential and parallel sweeps produce byte-identical tables.
func LatencyBreakdown(o Options) *Result {
	res := &Result{Name: "Latency breakdown: per-hop queueing vs processing (lighttpd workload)"}

	type config struct {
		name  string
		kind  stack.Kind
		slots [][]core.ThreadLoc
	}
	configs := []config{
		{"single-component, 2 replicas", stack.Single, testbed.SingleSlots(2, 2)},
		{"multi-component, 2 replicas", stack.Multi, testbed.MultiSlots(2, 2)},
	}

	type out struct {
		table  *report.Table
		krps   float64
		events string
		err    error
	}
	outs := RunParallel(len(configs), o.Workers, func(i int) out {
		c := configs[i]
		b, err := NewBed(BedConfig{
			Seed: o.seed(), Machine: AMD, Kind: c.kind,
			ReplicaSlots: c.slots,
			SyscallLoc:   core.ThreadLoc{Core: 1},
			WebLocs:      coreRange(6, 2),
			ConnsPerGen:  16, ReqPerConn: 100,
			Observe: true,
		})
		if err != nil {
			return out{err: err}
		}
		m := b.Run(o.warm(), o.window())
		// The table keeps the server-side story: the wire plus every hop on
		// the system under test. (Client-side hops are traced too — the
		// tracer is simulator-wide — but belong to the load generator.)
		var bd trace.Breakdown
		for _, sp := range b.Trace.Breakdown() {
			if sp.Component == "wire" || strings.HasPrefix(sp.Hop, "amd.") {
				bd = append(bd, sp)
			}
		}
		title := fmt.Sprintf("NEaT %s — per-hop latency at %.1f krps", c.name, m.KRPS)
		return out{table: bd.Table(title), krps: m.KRPS,
			events: trace.EventCounts(b.Trace.Events())}
	})

	for i, o := range outs {
		if o.err != nil {
			res.Notef("%s: bed failed: %v", configs[i].name, o.err)
			continue
		}
		res.Tables = append(res.Tables, o.table)
		if o.events != "" {
			res.Notef("%s lifecycle events: %s", configs[i].name, o.events)
		}
	}
	res.Notef("queueing = arrival → handling start; processing = handler execution (per message)")
	res.Notef("tracing is opt-in: default bench runs are untraced and pay zero observation cost")
	return res
}
