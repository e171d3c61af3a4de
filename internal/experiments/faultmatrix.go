package experiments

import (
	"fmt"
	"strings"

	"neat/internal/faultinject"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// The fault-matrix campaign extends the paper's Table 3 along two axes:
//
//   - fault kinds: besides crashes, processes can hang (livelock — alive
//     but draining nothing, invisible to the crash oracle the paper's
//     methodology assumes) or suffer a crash storm (the same component
//     dies again as soon as it is respawned);
//   - fault surface: besides the stack replicas, the singleton NIC driver
//     and SYSCALL server are injectable — a fault there takes down the
//     whole data or control plane until the service is respawned.
//
// Every matrix run therefore uses watchdog (heartbeat) failure detection
// instead of the instantaneous oracle: hangs are only detectable that
// way, and storms exercise the escalation ladder (component restart →
// whole-replica rebuild → slot quarantine) end to end.

// matrixKinds and matrixComps enumerate the campaign cells in report order.
var matrixKinds = []faultinject.Kind{
	faultinject.KindCrash, faultinject.KindHang, faultinject.KindStorm,
}

var matrixComps = []string{"pf", "ip", "udp", "tcp", "driver", "syscall"}

// Storm cadence: enough strikes, spaced tighter than the sliding window,
// to drive a replica slot past MaxRestarts.
const (
	stormStrikes = 9
	stormGap     = 3 * sim.Millisecond
)

// matrixOut classifies one fault-matrix run.
type matrixOut struct {
	ok        bool // bed built, fault injected, service reachable at the end
	detected  bool
	detectLat sim.Time // mean failure-onset → declaration latency
	outcome   string
}

// Matrix outcome labels (fixed order for deterministic report assembly).
var matrixOutcomes = []string{"transparent", "tcp lost", "quarantined", "plane recovered", "none"}

// FaultMatrix runs the extended fault-injection campaign: every fault
// kind against every component of the plane, R runs each, reported as an
// extended Table 3.
func FaultMatrix(o Options) *Result {
	res := &Result{Name: "Fault matrix: kind × component campaign under watchdog detection"}
	runsPer := 3
	observe := 150 * sim.Millisecond
	if o.Quick {
		runsPer = 1
		observe = 70 * sim.Millisecond
	}

	type cell struct {
		kind faultinject.Kind
		comp string
	}
	var cells []cell
	for _, k := range matrixKinds {
		for _, c := range matrixComps {
			cells = append(cells, cell{kind: k, comp: c})
		}
	}

	outs := RunParallel(len(cells)*runsPer, o.workers(), func(i int) matrixOut {
		c := cells[i/runsPer]
		seed := o.seed() + int64(i)
		return matrixRun(o, seed, c.kind, c.comp, observe)
	})

	tab := &report.Table{
		Title: fmt.Sprintf("Recovery outcome per fault kind × component (%d runs per cell)", runsPer),
		Columns: []string{"kind", "component", "runs", "reachable", "detected",
			"mean detect", "outcomes"},
	}
	var unreachable int
	var latSum sim.Time
	var latN int
	for ci, c := range cells {
		var reach, det int
		var lat sim.Time
		counts := map[string]int{}
		for r := 0; r < runsPer; r++ {
			out := outs[ci*runsPer+r]
			if out.ok {
				reach++
			} else {
				unreachable++
			}
			if out.detected {
				det++
			}
			lat += out.detectLat
			counts[out.outcome]++
		}
		latSum += lat
		latN += runsPer
		var parts []string
		for _, name := range matrixOutcomes {
			if n := counts[name]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s×%d", name, n))
			}
		}
		tab.AddRow(c.kind.String(), c.comp, runsPer, reach, det,
			fmt.Sprintf("%v", lat/sim.Time(runsPer)), strings.Join(parts, " "))
	}
	res.Tables = append(res.Tables, tab)
	if unreachable > 0 {
		res.Notef("%d runs left the server unreachable — recovery failed", unreachable)
	} else {
		res.Notef("after every fault (including hangs and storms) the server was reachable again")
	}
	res.Notef("mean detection latency across the campaign: %v (watchdog interval 100µs, K=3)",
		latSum/sim.Time(latN))
	return res
}

// matrixRun executes one fault-matrix run: boot a watchdog-supervised
// multi-component bed under web load, inject one (kind, component) fault,
// observe, and classify the recovery.
func matrixRun(o Options, seed int64, kind faultinject.Kind, comp string, observe sim.Time) matrixOut {
	b, err := NewBed(BedConfig{
		PDESWorkers: o.PDESWorkers,
		Seed:        seed, Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 2),
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      coreRange(6, 2),
		ConnsPerGen:  16, ReqPerConn: 100,
		Timeout:  150 * sim.Millisecond,
		Watchdog: true,
	})
	if err != nil {
		return matrixOut{outcome: "none"}
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Net.Sim.RunFor(20 * sim.Millisecond)

	inj := faultinject.New(b.Net.Sim.Rand(), faultinject.MatrixComponents)
	injection, ok := inj.InjectKind(b.NEaT, kind, comp)
	if !ok {
		return matrixOut{outcome: "none"}
	}
	if kind == faultinject.KindStorm {
		// Keep striking the same component: every respawned incarnation is
		// killed again until the escalation ladder fences the slot (or, for
		// the singleton services, until the storm ends and backoff drains).
		var strike func(left int)
		strike = func(left int) {
			if left == 0 {
				return
			}
			faultinject.ReInject(b.NEaT, injection)
			b.Net.Sim.After(stormGap, func() { strike(left - 1) })
		}
		b.Net.Sim.After(stormGap, func() { strike(stormStrikes - 1) })
	}
	b.Net.Sim.RunFor(observe)

	// Reachability: responses must still be flowing at the end.
	var before uint64
	for _, g := range b.Gens {
		before += g.Stats().ResponsesOK
	}
	b.Net.Sim.RunFor(40 * sim.Millisecond)
	var after uint64
	for _, g := range b.Gens {
		after += g.Stats().ResponsesOK
	}

	var out matrixOut
	out.ok = after > before
	st := b.NEaT.Stats()
	wst := b.NEaT.Watchdog().Stats()
	out.detected = wst.CrashesDetected+wst.HangsDetected+wst.SpuriousDetected > 0
	out.detectLat = b.NEaT.Watchdog().DetectionLatency().Mean()
	switch {
	case st.SlotsQuarantined > 0:
		out.outcome = "quarantined"
	case st.DriverRecoveries > 0 || st.SyscallRecoveries > 0:
		out.outcome = "plane recovered"
	case st.TCPStateLost > 0:
		out.outcome = "tcp lost"
	case st.TransparentRecov > 0 && st.ConnectionsLost == 0:
		out.outcome = "transparent"
	default:
		out.outcome = "none"
	}
	return out
}

// FaultReplay re-executes a single fault-matrix run verbosely for
// debugging: the same seed reproduces the same run bit for bit, and the
// report dumps the watchdog and management-plane counters that the
// campaign aggregates away.
func FaultReplay(o Options, seed int64, kind faultinject.Kind, comp string) *Result {
	res := &Result{Name: fmt.Sprintf("Fault replay: %s of %q (seed %d)", kind, comp, seed)}
	observe := 150 * sim.Millisecond
	if o.Quick {
		observe = 70 * sim.Millisecond
	}
	out := matrixRun(o, seed, kind, comp, observe)

	tab := &report.Table{Title: "Run classification",
		Columns: []string{"field", "value"}}
	tab.AddRow("outcome", out.outcome)
	tab.AddRow("service reachable", out.ok)
	tab.AddRow("failure detected", out.detected)
	tab.AddRow("mean detection latency", out.detectLat)
	res.Tables = append(res.Tables, tab)

	// Re-run to snapshot the counters (matrixRun's bed is internal; the
	// replay is deterministic, so the second execution is identical).
	det := replayCounters(o, seed, kind, comp, observe)
	res.Tables = append(res.Tables, det)
	res.Notef("replay is deterministic: the same seed reproduces this run exactly")
	return res
}

// FaultTimeline re-executes a single fault-matrix run with the
// observability layer attached and reports the management plane's
// lifecycle-event timeline: every spawn, detection, escalation, RSS
// rebind and recovery, stamped with simulated time. It is the annotated
// companion to FaultReplay — the counters say what happened, the
// timeline says when and in what order.
func FaultTimeline(o Options, seed int64, kind faultinject.Kind, comp string) *Result {
	res := &Result{Name: fmt.Sprintf("Fault timeline: %s of %q (seed %d)", kind, comp, seed)}
	observe := 150 * sim.Millisecond
	if o.Quick {
		observe = 70 * sim.Millisecond
	}
	b, err := NewBed(BedConfig{
		PDESWorkers: o.PDESWorkers,
		Seed:        seed, Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 2),
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      coreRange(6, 2),
		ConnsPerGen:  16, ReqPerConn: 100,
		Timeout:  150 * sim.Millisecond,
		Watchdog: true,
		Observe:  true,
	})
	if err != nil {
		res.Notef("bed failed: %v", err)
		return res
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Net.Sim.RunFor(20 * sim.Millisecond)
	// Boot noise (initial spawns, first RSS programming) ends here; keep
	// the timeline focused on the injected fault and its recovery.
	boot := len(b.Trace.Events())

	inj := faultinject.New(b.Net.Sim.Rand(), faultinject.MatrixComponents)
	injection, ok := inj.InjectKind(b.NEaT, kind, comp)
	if !ok {
		res.Notef("no injectable %s component in this configuration", comp)
		return res
	}
	if kind == faultinject.KindStorm {
		var strike func(left int)
		strike = func(left int) {
			if left == 0 {
				return
			}
			faultinject.ReInject(b.NEaT, injection)
			b.Net.Sim.After(stormGap, func() { strike(left - 1) })
		}
		b.Net.Sim.After(stormGap, func() { strike(stormStrikes - 1) })
	}
	b.Net.Sim.RunFor(observe + 40*sim.Millisecond)

	events := b.Trace.Events()[boot:]
	res.Tables = append(res.Tables, trace.Timeline(events,
		fmt.Sprintf("Lifecycle events after injecting %s into %s (%s)",
			kind, injection.Component, injection.Proc.Name)))
	res.Tables = append(res.Tables,
		report.Metrics("Watchdog instruments at the end of the run",
			b.NEaT.Metrics().Filter("watchdog.")))
	if s := trace.EventCounts(events); s != "" {
		res.Notef("event counts: %s", s)
	}
	res.Notef("%d boot-time events before the injection omitted", boot)
	res.Notef("the timeline is deterministic: the same seed reproduces it exactly")
	return res
}

// replayCounters runs the same scenario and tabulates the detector and
// management-plane statistics.
func replayCounters(o Options, seed int64, kind faultinject.Kind, comp string, observe sim.Time) *report.Table {
	b, err := NewBed(BedConfig{
		PDESWorkers: o.PDESWorkers,
		Seed:        seed, Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 2),
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      coreRange(6, 2),
		ConnsPerGen:  16, ReqPerConn: 100,
		Timeout:  150 * sim.Millisecond,
		Watchdog: true,
	})
	tab := &report.Table{Title: "Watchdog and management-plane counters",
		Columns: []string{"counter", "value"}}
	if err != nil {
		tab.AddRow("bed error", err.Error())
		return tab
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Net.Sim.RunFor(20 * sim.Millisecond)
	inj := faultinject.New(b.Net.Sim.Rand(), faultinject.MatrixComponents)
	injection, ok := inj.InjectKind(b.NEaT, kind, comp)
	if ok && kind == faultinject.KindStorm {
		var strike func(left int)
		strike = func(left int) {
			if left == 0 {
				return
			}
			faultinject.ReInject(b.NEaT, injection)
			b.Net.Sim.After(stormGap, func() { strike(left - 1) })
		}
		b.Net.Sim.After(stormGap, func() { strike(stormStrikes - 1) })
	}
	b.Net.Sim.RunFor(observe + 40*sim.Millisecond)

	wd := b.NEaT.Watchdog()
	wst := wd.Stats()
	st := b.NEaT.Stats()
	tab.AddRow("injected into", fmt.Sprintf("%s (%s)", injection.Component, injection.Proc.Name))
	tab.AddRow("probes sent", wst.ProbesSent)
	tab.AddRow("acks received", wst.AcksReceived)
	tab.AddRow("probes missed", wst.ProbesMissed)
	tab.AddRow("crashes detected", wst.CrashesDetected)
	tab.AddRow("hangs detected", wst.HangsDetected)
	tab.AddRow("spurious detections", wst.SpuriousDetected)
	tab.AddRow("detection latency (mean)", wd.DetectionLatency().Mean())
	tab.AddRow("recoveries", st.Recoveries)
	tab.AddRow("secondary crashes merged", st.SecondaryCrashes)
	tab.AddRow("whole-replica rebuilds", st.ReplicaRebuilds)
	tab.AddRow("slots quarantined", st.SlotsQuarantined)
	tab.AddRow("driver recoveries", st.DriverRecoveries)
	tab.AddRow("syscall recoveries", st.SyscallRecoveries)
	tab.AddRow("connections lost", st.ConnectionsLost)
	tab.AddRow("final slot states", fmt.Sprintf("%v", b.NEaT.SlotStates()))
	return tab
}
