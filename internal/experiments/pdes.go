package experiments

import (
	"fmt"
	"runtime"
	"time"

	"neat/internal/app"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

// The PDES benches exercise the conservative parallel simulation mode on a
// topology it is designed for: a farm of independent (server, client)
// machine pairs, each pair joined by its own 10G link, all inside one
// simulation. With 2×pairs machines the coordinator has 2×pairs domains to
// spread over its workers; each domain only ever talks to its link peer,
// so the wire lookahead bounds every window.
//
// PDESFarm is the deterministic campaign (its rendered report is
// byte-identical for any worker count — the determinism test compares
// workers=1 against workers=4); PDESScaling is the wall-clock ladder
// (neat-bench -only pdesscale).

// farmPair is one (server, client) machine pair of the farm.
type farmPair struct {
	srv, cli *testbed.Host
	sys      *core.System
	clisys   *core.System
	web      *app.HTTPD
	gen      *app.Loadgen
}

// farm is a multi-pair testbed sharing one simulator.
type farm struct {
	sim   *sim.Simulator
	pairs []*farmPair
}

func farmPairCount(o Options) int {
	if o.Quick {
		return 4
	}
	return 6
}

func (o Options) farmWarm() sim.Time {
	if o.Quick {
		return 5 * sim.Millisecond
	}
	return 15 * sim.Millisecond
}

func (o Options) farmWindow() sim.Time {
	if o.Quick {
		return 10 * sim.Millisecond
	}
	return 40 * sim.Millisecond
}

// newFarm builds the farm: pairs (server, client) machine pairs, one link
// each, on a single simulator. pdesWorkers > 0 enables PDES with that many
// workers; 0 keeps the sequential global event loop.
func newFarm(seed int64, pairs, pdesWorkers int) (*farm, error) {
	s := sim.New(seed)
	if pdesWorkers > 0 {
		s.EnablePDES(pdesWorkers)
	}
	f := &farm{sim: s}
	tcp := tcpeng.DefaultConfig()
	for i := 0; i < pairs; i++ {
		n := testbed.NewOn(s)
		// Small hosts: driver on core 0, SYSCALL on core 1, one replica on
		// core 2, the application on core 3. The farm's parallelism comes
		// from the number of pairs, not the size of each machine.
		srv := n.AddHost(testbed.HostConfig{
			Name: fmt.Sprintf("srv%d", i), Side: 0, Cores: 4, ThreadsPerCore: 1,
			FreqHz: 1_900_000_000, Queues: 1,
			IP:     proto.IPv4(10, 0, 0, 1),
			MAC:    proto.MAC{0x02, 0xFA, 0, 0, byte(i), 0x01},
			Driver: testbed.ThreadLoc{Core: 0},
		})
		cli := n.AddHost(testbed.HostConfig{
			Name: fmt.Sprintf("cli%d", i), Side: 1, Cores: 4, ThreadsPerCore: 1,
			FreqHz: 3_000_000_000, Queues: 1,
			IP:     proto.IPv4(10, 0, 0, 2),
			MAC:    proto.MAC{0x02, 0xFA, 0, 0, byte(i), 0x02},
			Driver: testbed.ThreadLoc{Core: 0},
		})
		scfg := srv.StackConfig(stack.Single, tcp, cli)
		scfg.Costs = ServerStackCosts()
		sys, err := srv.BuildNEaT(cli, testbed.NEaTConfig{
			Kind: stack.Single, TCP: tcp,
			Slots:   testbed.SingleSlots(2, 1),
			Syscall: testbed.ThreadLoc{Core: 1},
			Stack:   &scfg,
		})
		if err != nil {
			return nil, fmt.Errorf("pdes farm pair %d server: %w", i, err)
		}
		clisys, err := cli.BuildClientSystem(srv, 1, tcpeng.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("pdes farm pair %d client: %w", i, err)
		}
		web := app.NewHTTPD(srv.Thread(testbed.ThreadLoc{Core: 3}),
			fmt.Sprintf("lighttpd%d", i), sys.SyscallProc(),
			ipc.DefaultCosts(), app.HTTPDConfig{
				Port:             8000,
				Files:            map[string]int{"/file": 20},
				CyclesPerRequest: AppCyclesPerRequest,
			})
		web.Start()
		gen := app.NewLoadgen(cli.AppThread(3), fmt.Sprintf("httperf%d", i),
			clisys.SyscallProc(), ipc.DefaultCosts(), app.LoadgenConfig{
				Target: srv.IP, Port: 8000, URI: "/file",
				Conns: 8, ReqPerConn: 100,
			})
		f.pairs = append(f.pairs, &farmPair{
			srv: srv, cli: cli, sys: sys, clisys: clisys, web: web, gen: gen,
		})
	}
	s.RunFor(2 * sim.Millisecond)
	for i, p := range f.pairs {
		if !p.web.Ready() {
			return nil, fmt.Errorf("pdes farm pair %d: lighttpd failed to listen", i)
		}
	}
	return f, nil
}

// run drives the whole farm: start every generator, warm up, measure.
func (f *farm) run(warm, window sim.Time) {
	for _, p := range f.pairs {
		p.gen.Start()
	}
	f.sim.RunFor(warm)
	for _, p := range f.pairs {
		p.gen.BeginMeasure()
	}
	f.sim.RunFor(window)
}

// table renders the deterministic per-pair report.
func (f *farm) table(window sim.Time) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("PDES farm: %d machine pairs, %v measurement window", len(f.pairs), window),
		Columns: []string{"pair", "krps", "errors", "server events", "client events"},
	}
	var totalKRPS float64
	_, _, doms := f.sim.PDESStats()
	events := map[string]uint64{}
	for _, d := range doms {
		events[d.Name] = d.Events
	}
	for i, p := range f.pairs {
		st := p.gen.Stats()
		krps := metrics.KRate(p.gen.GoodResponses(), window)
		totalKRPS += krps
		t.AddRow(fmt.Sprintf("srv%d/cli%d", i, i), krps, st.ConnErrors,
			events[fmt.Sprintf("srv%d", i)], events[fmt.Sprintf("cli%d", i)])
	}
	t.AddRow("total", totalKRPS, "", "", "")
	return t
}

// PDESFarm runs the farm once and reports per-pair goodput plus
// coordinator statistics. The rendered result is byte-identical for every
// PDESWorkers >= 1 (that is the determinism contract the verify suite
// pins); PDESWorkers == 0 runs the same topology on the sequential global
// event loop, which interleaves RNG streams differently and is therefore a
// different (also deterministic) schedule.
func PDESFarm(o Options) *Result {
	mode := "sequential (global event loop)"
	if o.PDESWorkers > 0 {
		mode = fmt.Sprintf("PDES, %d workers", o.PDESWorkers)
	}
	res := &Result{Name: "PDES farm: independent server/client pairs, one simulation (" + mode + ")"}
	f, err := newFarm(o.seed(), farmPairCount(o), o.PDESWorkers)
	if err != nil {
		res.Notef("farm failed: %v", err)
		return res
	}
	f.run(o.farmWarm(), o.farmWindow())
	res.Tables = append(res.Tables, f.table(o.farmWindow()))
	if barriers, horizon, doms := f.sim.PDESStats(); doms != nil {
		res.Notef("coordinator: %d domains, %d barriers, %v lookahead horizon",
			len(doms), barriers, horizon)
		res.Notef("windows advance all domains in parallel up to the wire lookahead (min-frame serialization + propagation)")
	}
	res.Notef("pairs only talk across their own link, so per-domain event counts are independent of the worker count")
	return res
}

// ScalingPoint is one row of the PDES scaling ladder.
type ScalingPoint struct {
	Workers     int     // 0 = sequential global event loop
	WallSeconds float64 // wall-clock time to build and run the farm
	KRPS        float64 // total farm goodput (sanity: identical for workers >= 1)
}

// pdesScalingLadder times the same farm run at each worker count and
// returns the points — workers=0 is the sequential
// baseline. Wall-clock speedup beyond workers=1 requires real CPUs; on a
// single-core host the ladder degenerates to the coordination overhead.
func pdesScalingLadder(o Options, workerCounts []int) ([]ScalingPoint, error) {
	pairs := farmPairCount(o)
	var out []ScalingPoint
	for _, w := range workerCounts {
		start := time.Now()
		f, err := newFarm(o.seed(), pairs, w)
		if err != nil {
			return nil, err
		}
		f.run(o.farmWarm(), o.farmWindow())
		wall := time.Since(start).Seconds()
		var total float64
		for _, p := range f.pairs {
			total += metrics.KRate(p.gen.GoodResponses(), o.farmWindow())
		}
		out = append(out, ScalingPoint{Workers: w, WallSeconds: wall, KRPS: total})
	}
	return out, nil
}

// PDESScaling renders the scaling ladder as a result table.
func PDESScaling(o Options) *Result {
	res := &Result{Name: "PDES scaling: wall-clock time vs worker count (same farm, same seed)"}
	points, err := pdesScalingLadder(o, []int{0, 1, 2, 4})
	if err != nil {
		res.Notef("ladder failed: %v", err)
		return res
	}
	t := &report.Table{
		Title:   fmt.Sprintf("farm of %d pairs on a %d-CPU host", farmPairCount(o), runtime.NumCPU()),
		Columns: []string{"workers", "wall (s)", "speedup vs 1 worker", "total krps"},
	}
	var base float64
	for _, p := range points {
		if p.Workers == 1 {
			base = p.WallSeconds
		}
	}
	for _, p := range points {
		label := fmt.Sprint(p.Workers)
		if p.Workers == 0 {
			label = "seq"
		}
		speedup := "-"
		if base > 0 && p.Workers >= 1 {
			speedup = fmt.Sprintf("%.2fx", base/p.WallSeconds)
		}
		t.AddRow(label, fmt.Sprintf("%.2f", p.WallSeconds), speedup, p.KRPS)
	}
	res.Tables = append(res.Tables, t)
	res.Notef("host has %d CPUs (runtime.NumCPU); speedup above 1x requires at least as many CPUs as workers", runtime.NumCPU())
	res.Notef("goodput is identical across worker counts >= 1: the schedule is deterministic, only the wall clock changes")
	return res
}
