// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§6), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark runs the corresponding
// experiment end to end (full simulation) once per b.N iteration and
// reports the headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. See cmd/neat-bench for the
// human-readable report with paper-vs-measured tables.
package neat

import (
	"runtime"
	"testing"

	"neat/internal/core"
	"neat/internal/experiments"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// benchOpts keeps the per-iteration cost sane while staying representative.
var benchOpts = experiments.Options{Quick: true, Seed: 1}

// reportPeak extracts the named series' peak from a figure result.
func reportPeak(b *testing.B, res *experiments.Result, series string, metric string) {
	b.Helper()
	for _, f := range res.Figures {
		for _, s := range f.Series {
			if s.Label == series {
				b.ReportMetric(s.MaxY(), metric)
				return
			}
		}
	}
}

// BenchmarkTable1LinuxTuning regenerates the Linux tuning ladder
// (paper: 184.1 / 186.7 / 224.0 krps).
func BenchmarkTable1LinuxTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(benchOpts)
		if last := res.Tables[0].Rows[2][1]; last == "" {
			b.Fatal("no result")
		}
	}
}

// BenchmarkFigure4LatencyVsFileSize regenerates the latency/file-size
// sweep on the tuned Linux baseline.
func BenchmarkFigure4LatencyVsFileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(benchOpts)
		if len(res.Figures[0].Series[0].X) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFigure5ThroughputVsFileSize regenerates the throughput
// saturation sweep (paper: the 10G link saturates past ≈7 KB).
func BenchmarkFigure5ThroughputVsFileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(benchOpts)
		if len(res.Figures[0].Series[1].Y) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFigure7AMDScaling regenerates the AMD scaling curves
// (paper: NEaT 3x reaches 302 krps, +34.8% over Linux).
func BenchmarkFigure7AMDScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(benchOpts)
		reportPeak(b, res, "NEaT 3x", "neat3x-peak-krps")
	}
}

// BenchmarkFigure9XeonMulti regenerates the Xeon multi-component scaling
// (paper: peak 322 krps).
func BenchmarkFigure9XeonMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure9(benchOpts)
		reportPeak(b, res, "Multi 2x", "multi2x-peak-krps")
	}
}

// BenchmarkFigure11XeonSingle regenerates the Xeon single-component
// scaling (paper: NEaT 4x HT sustains 372 krps, +13.4% over Linux's 328).
func BenchmarkFigure11XeonSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure11(benchOpts)
		reportPeak(b, res, "NEaT 4x HT", "neat4xht-peak-krps")
	}
}

// BenchmarkFigure12SingleRequest regenerates the 1-request-per-connection
// comparison across five stack configurations.
func BenchmarkFigure12SingleRequest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure12(benchOpts)
		if len(res.Figures[0].Series) != 5 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkTable2DriverCPU regenerates the driver CPU breakdown
// (paper: 6/60/88/97 % load at 3/45/90/242 web krps).
func BenchmarkTable2DriverCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(benchOpts)
		if len(res.Tables[0].Rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTable3FaultInjection regenerates the fault-injection campaign
// (paper: 53.8% transparent recovery / 46.2% TCP connections lost).
func BenchmarkTable3FaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(benchOpts)
		if len(res.Tables[0].Rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFigure13StateVsThroughput regenerates the reliability vs
// throughput trade-off table.
func BenchmarkFigure13StateVsThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure13(benchOpts)
		if len(res.Tables[0].Rows) != 7 {
			b.Fatal("missing configurations")
		}
	}
}

// ---- Ablations (design choices DESIGN.md calls out) ----

// ablationBed builds a 3-replica NEaT web bed with optional knobs.
func ablationBed(b *testing.B, flowFilters bool) float64 {
	b.Helper()
	return runWeb(b, sim.New(1), testbed.AMD.Host(3), core.Config{
		Kind: stack.Single, TCP: defaultTCP(),
		Slots:              testbed.SingleSlots(2, 3),
		Syscall:            core.ThreadLoc{Core: 1},
		DisableFlowFilters: !flowFilters,
	}, 4)
}

// BenchmarkAblationFlowDirectorVsRSS compares exact-filter steering
// against pure RSS hashing (§4): with filters, established connections
// are pinned regardless of RSS reconfiguration; throughput should be
// comparable, making filters' value visible only during scaling events.
func BenchmarkAblationFlowDirectorVsRSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationBed(b, true)
		without := ablationBed(b, false)
		b.ReportMetric(with, "filters-krps")
		b.ReportMetric(without, "rss-only-krps")
	}
}

// BenchmarkAblationMultiVsSingle compares the two replica layouts at
// equal core budgets (2 cores): one multi-component replica vs two
// single-component replicas — the performance/reliability trade-off of
// Figure 13.
func BenchmarkAblationMultiVsSingle(b *testing.B) {
	run := func(kind stack.Kind, replicas int) float64 {
		slots := testbed.SingleSlots(2, replicas)
		if kind == stack.Multi {
			slots = testbed.MultiSlots(2, replicas)
		}
		return runWeb(b, sim.New(1), testbed.AMD.Host(replicas), core.Config{
			Kind: kind, TCP: defaultTCP(),
			Slots: slots, Syscall: core.ThreadLoc{Core: 1},
		}, 4)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(stack.Multi, 1), "multi1x-krps")
		b.ReportMetric(run(stack.Single, 2), "single2x-krps")
	}
}

// BenchmarkAblationHyperthreadColocation measures the §6.4 strategy of
// colocating driver+SYSCALL and packing replicas onto sibling threads,
// against dedicating full cores.
func BenchmarkAblationHyperthreadColocation(b *testing.B) {
	run := func(colocate bool) float64 {
		cfg := core.Config{
			Kind: stack.Single, TCP: defaultTCP(),
			Slots:   testbed.SingleSlots(2, 2),
			Syscall: core.ThreadLoc{Core: 1},
		}
		if colocate {
			cfg.Slots = [][]core.ThreadLoc{{{Core: 1, Thread: 0}}, {{Core: 1, Thread: 1}}}
			cfg.Syscall = core.ThreadLoc{Core: 0, Thread: 1}
		}
		return runWeb(b, sim.New(1), testbed.Xeon.Host(2), cfg, 4)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "ht-colocated-krps")
		b.ReportMetric(run(false), "dedicated-cores-krps")
	}
}

// BenchmarkSimulatorThroughput measures the raw event-processing rate of
// the discrete-event engine under web load (events/second of host time).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		runThroughputBed(b, s)
		b.ReportMetric(float64(s.EventsRun()), "sim-events")
	}
}

// runThroughputBed runs BenchmarkSimulatorThroughput's web bed on s.
func runThroughputBed(tb testing.TB, s *sim.Simulator) {
	runWeb(tb, s, testbed.AMD.Host(2), core.Config{
		Kind: stack.Single, TCP: defaultTCP(),
		Slots: testbed.SingleSlots(2, 2), Syscall: core.ThreadLoc{Core: 1},
	}, 2)
}

// TestWheelInsertWalk is a host-independent gate on the scheduler's cost
// per schedule: an L0 insert walks its slot's sorted ring back from the
// tail, one dependent load per entry it steps over, so the mean walk on the
// throughput bed measures how well the L0 bucket width fits the traffic.
// On this bed 64 ns buckets step over 0.03 entries per insert and 4096 ns
// buckets over 0.67.
func TestWheelInsertWalk(t *testing.T) {
	const budget = 0.25
	s := sim.New(1)
	runThroughputBed(t, s)
	ts := s.TimerStats()
	if ts.L0Inserts == 0 {
		t.Fatal("no L0 inserts recorded")
	}
	mean := float64(ts.L0Steps) / float64(ts.L0Inserts)
	t.Logf("%d L0 inserts, %d into an occupied slot, %d ring steps: %.3f steps per insert",
		ts.L0Inserts, ts.L0Shared, ts.L0Steps, mean)
	if mean > budget {
		t.Fatalf("%.3f ring steps per L0 insert, budget %.2f", mean, budget)
	}
}

// TestThroughputBedLiveBytes is a budget on what BenchmarkSimulatorThroughput's
// bed keeps reachable at the end of its run: heap bytes with the bed alive
// minus heap bytes before it was built, each read after two collections (the
// second empties the buffer pools' victim caches). Every ipc ring, payload
// arena and PCB pool of the bed is in it, so a structure sized by a constant
// instead of by its traffic shows here.
func TestThroughputBedLiveBytes(t *testing.T) {
	// 1.05 × the 338,480 bytes the bed kept when the budget was set (go1.24,
	// linux/amd64). EXPERIMENTS.md lists what each sized structure adds.
	const budget = 355_400
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	s := sim.New(1)
	runThroughputBed(t, s)
	live := heap() - before
	runtime.KeepAlive(s)
	if live > budget {
		t.Fatalf("the bed keeps %d bytes live, budget %d", live, budget)
	}
	t.Logf("the bed keeps %d bytes live, budget %d", live, budget)
}

// BenchmarkAblationCheckpointing measures the run-time cost of
// checkpoint-based stateful recovery (§2.1's trade-off): periodic TCP
// snapshots buy connection survival at a throughput price.
func BenchmarkAblationCheckpointing(b *testing.B) {
	run := func(interval sim.Time) float64 {
		// One replica serving more web demand than it has capacity for:
		// the snapshot cycles come straight out of the request rate.
		return runWeb(b, sim.New(1), testbed.AMD.Host(1), core.Config{
			Kind: stack.Single, TCP: defaultTCP(),
			Slots:              testbed.SingleSlots(2, 1),
			Syscall:            core.ThreadLoc{Core: 1},
			CheckpointInterval: interval,
		}, 4)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(0), "stateless-krps")
		b.ReportMetric(run(sim.Millisecond), "checkpointed-krps")
	}
}
