package experiments

import (
	"fmt"
	"strings"

	"neat/internal/core"
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
	if o.Quick {
		runsPer = 1
	}
	observe := matrixObserve(o)

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

	outs := RunParallel(len(cells)*runsPer, o.Workers, func(i int) matrixOut {
		c := cells[i/runsPer]
		seed := o.seed() + int64(i)
		return classify(runFault(seed, c.kind, c.comp, observe, false))
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

// faultRun is one fault-injection scenario, the sequence every fault
// campaign runs: boot the multi-component AMD bed under web load, warm it
// for 20 ms, inject one fault, observe, then watch 40 ms more for
// responses.
type faultRun struct {
	b         *Bed
	injection faultinject.Injection
	boot      int  // trace events recorded before the injection
	reachable bool // responses still flowed in the last 40 ms
}

// runFault executes the scenario. An empty comp draws the fault the §6.6
// way: a crash in a component weighted by code size, detected by the crash
// oracle. Otherwise kind is injected into comp under watchdog detection,
// and a storm re-strikes every respawned incarnation. trace attaches the
// observability layer. The error reports a bed that failed to boot or a
// fault that found no target.
func runFault(seed int64, kind faultinject.Kind, comp string, observe sim.Time, trace bool) (*faultRun, error) {
	b, err := NewBed(BedConfig{
		Seed: seed, Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 2),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs:      coreRange(6, 2),
		ConnsPerGen:  16, ReqPerConn: 100,
		Timeout:  150 * sim.Millisecond,
		Watchdog: comp != "",
		Observe:  trace,
	})
	if err != nil {
		return nil, fmt.Errorf("bed failed: %w", err)
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Net.Sim.RunFor(20 * sim.Millisecond)
	fr := &faultRun{b: b}
	if b.Trace != nil {
		fr.boot = len(b.Trace.Events())
	}

	var ok bool
	if comp == "" {
		fr.injection, ok = faultinject.New(b.Net.Sim.Rand(), nil).Inject(b.NEaT)
	} else {
		inj := faultinject.New(b.Net.Sim.Rand(), faultinject.MatrixComponents)
		fr.injection, ok = inj.InjectKind(b.NEaT, kind, comp)
	}
	if !ok {
		return nil, fmt.Errorf("no injectable %s component in this configuration", comp)
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
			faultinject.ReInject(b.NEaT, fr.injection)
			b.Net.Sim.After(stormGap, func() { strike(left - 1) })
		}
		b.Net.Sim.After(stormGap, func() { strike(stormStrikes - 1) })
	}
	b.Net.Sim.RunFor(observe)

	before := b.responsesOK()
	b.Net.Sim.RunFor(40 * sim.Millisecond)
	fr.reachable = b.responsesOK() > before
	return fr, nil
}

// responsesOK sums the load generators' successful responses.
func (b *Bed) responsesOK() uint64 {
	var n uint64
	for _, g := range b.Gens {
		n += g.Stats().ResponsesOK
	}
	return n
}

// classify reads a matrix run's outcome off the watchdog and the
// management plane; a run whose fault never went in classifies as "none".
func classify(fr *faultRun, err error) matrixOut {
	if err != nil {
		return matrixOut{outcome: "none"}
	}
	sys := fr.b.NEaT
	st := sys.Stats()
	wst := sys.Watchdog().Stats()
	out := matrixOut{
		ok:        fr.reachable,
		detected:  wst.CrashesDetected+wst.HangsDetected+wst.SpuriousDetected > 0,
		detectLat: sys.Watchdog().DetectionLatency().Mean(),
	}
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
	fr, err := runFault(seed, kind, comp, matrixObserve(o), false)
	out := classify(fr, err)

	tab := &report.Table{Title: "Run classification",
		Columns: []string{"field", "value"}}
	tab.AddRow("outcome", out.outcome)
	tab.AddRow("service reachable", out.ok)
	tab.AddRow("failure detected", out.detected)
	tab.AddRow("mean detection latency", out.detectLat)

	cnt := &report.Table{Title: "Watchdog and management-plane counters",
		Columns: []string{"counter", "value"}}
	if err != nil {
		cnt.AddRow("error", err.Error())
	} else {
		fr.addCounters(cnt)
	}
	res.Tables = append(res.Tables, tab, cnt)
	res.Notef("replay is deterministic: the same seed reproduces this run exactly")
	return res
}

// addCounters tabulates the detector and management-plane statistics.
func (fr *faultRun) addCounters(tab *report.Table) {
	wd := fr.b.NEaT.Watchdog()
	wst := wd.Stats()
	st := fr.b.NEaT.Stats()
	tab.AddRow("injected into", fmt.Sprintf("%s (%s)", fr.injection.Component, fr.injection.Proc.Name))
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
	tab.AddRow("final slot states", fmt.Sprintf("%v", fr.b.NEaT.SlotStates()))
}

// FaultTimeline re-executes a single fault-matrix run with the
// observability layer attached and reports the management plane's
// lifecycle-event timeline: every spawn, detection, escalation, RSS
// rebind and recovery, stamped with simulated time. It is the annotated
// companion to FaultReplay — the counters say what happened, the
// timeline says when and in what order.
func FaultTimeline(o Options, seed int64, kind faultinject.Kind, comp string) *Result {
	res := &Result{Name: fmt.Sprintf("Fault timeline: %s of %q (seed %d)", kind, comp, seed)}
	fr, err := runFault(seed, kind, comp, matrixObserve(o), true)
	if err != nil {
		res.Notef("%v", err)
		return res
	}
	// Boot noise (initial spawns, first RSS programming) precedes the
	// injection; keep the timeline focused on the fault and its recovery.
	events := fr.b.Trace.Events()[fr.boot:]
	res.Tables = append(res.Tables, trace.Timeline(events,
		fmt.Sprintf("Lifecycle events after injecting %s into %s (%s)",
			kind, fr.injection.Component, fr.injection.Proc.Name)))
	res.Tables = append(res.Tables,
		report.Metrics("Watchdog instruments at the end of the run",
			fr.b.NEaT.Metrics().Filter("watchdog.")))
	if s := trace.EventCounts(events); s != "" {
		res.Notef("event counts: %s", s)
	}
	res.Notef("%d boot-time events before the injection omitted", fr.boot)
	res.Notef("the timeline is deterministic: the same seed reproduces it exactly")
	return res
}

// matrixObserve is a matrix run's observation window.
func matrixObserve(o Options) sim.Time {
	if o.Quick {
		return 70 * sim.Millisecond
	}
	return 150 * sim.Millisecond
}
