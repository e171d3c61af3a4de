package experiments

import (
	"fmt"

	"neat/internal/core"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
)

// Xeon placements follow the paper's Figures 8 and 10: hyperthreading lets
// NEaT colocate the NIC driver with the SYSCALL server and pack replicas
// two per core, freeing cores for the application.

// xeonSeries describes one curve of Figure 9 or 11: the replica slots, the
// driver/SYSCALL placement, and the lighttpd fill order.
type xeonSeries struct {
	label   string
	kind    stack.Kind
	slots   [][]core.ThreadLoc
	driver  core.ThreadLoc
	syscall core.ThreadLoc
	webFill []core.ThreadLoc
	points  []int // which web counts to measure
}

// xeonPoint measures one web count of a series.
func xeonPoint(o Options, s xeonSeries, webs, conns int) (Measurement, error) {
	if webs > len(s.webFill) {
		return Measurement{}, fmt.Errorf("xeon series %s: %d webs exceed fill order", s.label, webs)
	}
	b, err := NewBed(BedConfig{
		Seed: o.seed(), Machine: Xeon, Kind: s.kind,
		ReplicaSlots: s.slots,
		SyscallLoc:   s.syscall,
		DriverLoc:    s.driver,
		WebLocs:      s.webFill[:webs],
		ConnsPerGen:  conns, ReqPerConn: 100,
	})
	if err != nil {
		return Measurement{}, err
	}
	return b.Run(o.warm(), o.window()), nil
}

// runXeonSeries measures the series at each web count.
func runXeonSeries(o Options, s xeonSeries, fig *report.Figure, conns int) *report.Series {
	series := fig.NewSeries(s.label)
	outs := RunParallel(len(s.points), o.Workers, func(i int) outcome {
		m, err := xeonPoint(o, s, s.points[i], conns)
		return outcome{m: m, err: err}
	})
	for i, webs := range s.points {
		if outs[i].err != nil {
			continue
		}
		series.Add(float64(webs), outs[i].m.KRPS)
	}
	return series
}

// threadFill lists (core,0) for cores in order, then (core,1).
func threadFill(cores ...int) []core.ThreadLoc {
	var out []core.ThreadLoc
	for _, c := range cores {
		out = append(out, core.ThreadLoc{Core: c, Thread: 0})
	}
	for _, c := range cores {
		out = append(out, core.ThreadLoc{Core: c, Thread: 1})
	}
	return out
}

func loc(c, t int) core.ThreadLoc { return core.ThreadLoc{Core: c, Thread: t} }

// The Xeon layouts of Figures 9 and 11, declared once: Figure 13 measures
// them again at a single point each.
var (
	// Multi 1x: one replica on two dedicated cores.
	multi1x = xeonSeries{
		label: "Multi 1x", kind: stack.Multi,
		slots:  [][]core.ThreadLoc{{loc(2, 0), loc(3, 0)}},
		driver: loc(0, 0), syscall: loc(1, 0),
		webFill: threadFill(4, 5, 6, 7),
		points:  []int{1, 2, 3, 4},
	}
	// Multi 2x on dedicated cores: only cores 6,7 remain for lighttpd;
	// points 3,4 use their sibling threads, 6 adds the TCP cores' and 8
	// the IP cores' spare threads (§6.4).
	multi2x = xeonSeries{
		label: "Multi 2x", kind: stack.Multi,
		slots:  [][]core.ThreadLoc{{loc(2, 0), loc(3, 0)}, {loc(4, 0), loc(5, 0)}},
		driver: loc(0, 0), syscall: loc(1, 0),
		webFill: []core.ThreadLoc{loc(6, 0), loc(7, 0), loc(6, 1), loc(7, 1),
			loc(3, 1), loc(5, 1), loc(2, 1), loc(4, 1)},
		points: []int{1, 2, 3, 4, 6, 8},
	}
	// Multi 2x HT (Fig. 8c): both TCP processes share one core, both IP
	// processes another; driver and SYSCALL share core 0.
	multi2xHT = xeonSeries{
		label: "Multi 2x HT", kind: stack.Multi,
		slots:  [][]core.ThreadLoc{{loc(2, 0), loc(1, 0)}, {loc(2, 1), loc(1, 1)}},
		driver: loc(0, 0), syscall: loc(0, 1),
		webFill: threadFill(3, 4, 5, 6, 7),
		points:  []int{2, 4, 6, 8},
	}
	neat1x = xeonSeries{
		label: "NEaT 1x", kind: stack.Single,
		slots:  [][]core.ThreadLoc{{loc(2, 0)}},
		driver: loc(0, 0), syscall: loc(1, 0),
		webFill: threadFill(3, 4, 5, 6, 7),
		points:  []int{1, 2, 3, 4, 5},
	}
	neat1xHT = xeonSeries{
		label: "NEaT 1x HT", kind: stack.Single,
		slots:  [][]core.ThreadLoc{{loc(1, 0)}},
		driver: loc(0, 0), syscall: loc(0, 1),
		webFill: threadFill(2, 3, 4, 5, 6, 7),
		points:  []int{1, 2, 3, 4, 5, 6, 8, 9},
	}
	neat2x = xeonSeries{
		label: "NEaT 2x", kind: stack.Single,
		slots:  [][]core.ThreadLoc{{loc(2, 0)}, {loc(3, 0)}},
		driver: loc(0, 0), syscall: loc(1, 0),
		webFill: threadFill(4, 5, 6, 7),
		points:  []int{2, 3, 4, 5, 6, 8},
	}
	neat2xHT = xeonSeries{
		label: "NEaT 2x HT", kind: stack.Single,
		slots:  [][]core.ThreadLoc{{loc(1, 0)}, {loc(1, 1)}},
		driver: loc(0, 0), syscall: loc(0, 1),
		webFill: threadFill(2, 3, 4, 5, 6, 7),
		points:  []int{2, 4, 6, 8, 9},
	}
	// Fig. 10: the best-performing configuration, fully exploiting
	// hyperthreading: 4 replicas on 2 cores, driver+SYSCALL on one.
	neat4xHT = xeonSeries{
		label: "NEaT 4x HT", kind: stack.Single,
		slots: [][]core.ThreadLoc{
			{loc(1, 0)}, {loc(1, 1)}, {loc(2, 0)}, {loc(2, 1)},
		},
		driver: loc(0, 0), syscall: loc(0, 1),
		webFill: threadFill(3, 4, 5, 6, 7),
		points:  []int{4, 6, 8, 9, 10},
	}
)

// at returns the series measured at the single web count webs.
func (s xeonSeries) at(webs int) xeonSeries {
	s.points = []int{webs}
	return s
}

// Figure9 reproduces the Xeon multi-component scaling: Multi 1x, Multi 2x
// (spilling lighttpd onto the stack cores' spare threads) and Multi 2x HT
// (both replicas colocated on two cores). Paper: peaks at 322 krps with 8
// lighttpd instances.
func Figure9(o Options) *Result {
	res := &Result{Name: "Figure 9: Xeon — scaling the multi-component stack"}
	fig := &report.Figure{Title: "Request rate vs lighttpd instances (Xeon, 8 cores × 2 threads)",
		XLabel: "#lighttpd", YLabel: "krps"}

	var peak float64
	for _, s := range []xeonSeries{multi1x, multi2x, multi2xHT} {
		series := runXeonSeries(o, s, fig, 24)
		if m := series.MaxY(); m > peak {
			peak = m
		}
	}
	res.Figures = append(res.Figures, fig)
	res.Notef("peak: %.1f krps (paper: 322 krps at 8 lighttpd instances)", peak)
	res.Notef("paper shape: throughput peaks at 4 instances per Multi 1x; Multi 2x scales on via spare hyperthreads")
	return res
}

// Figure11 reproduces the Xeon single-component scaling: NEaT 1x/2x with
// and without hyperthread packing and the best configuration NEaT 4x HT
// (Fig. 10). Paper: NEaT 4x sustains 372 krps, 13.4 % above the best
// Linux result (328 krps) on the same machine.
func Figure11(o Options) *Result {
	res := &Result{Name: "Figure 11: Xeon — scaling the single-component stack"}
	fig := &report.Figure{Title: "Request rate vs lighttpd instances (Xeon, single-component)",
		XLabel: "#lighttpd", YLabel: "krps"}

	var best float64
	for _, s := range []xeonSeries{neat1x, neat1xHT, neat2x, neat2xHT, neat4xHT} {
		sr := runXeonSeries(o, s, fig, 24)
		if m := sr.MaxY(); m > best {
			best = m
		}
	}
	res.Figures = append(res.Figures, fig)
	res.Notef("best: %.1f krps (paper: NEaT 4x HT sustains 372 krps = +13.4%% over Linux's 328)", best)
	return res
}

// Table2 reproduces the driver CPU usage breakdown: a mostly idle 10G
// driver spends its active cycles suspending/resuming in the kernel and
// polling; under load it converts that "wasted" time into processing.
// Paper rows (CPU load / kernel / polling / web krps):
// 6/33.3/51.8/3 — 60/14.2/27.9/45 — 88/5.4/19.7/90 — 97/0.1/7.4/242.
func Table2(o Options) *Result {
	res := &Result{Name: "Table 2: 10G driver CPU usage breakdown (Xeon, 3 replicas)"}
	tab := &report.Table{
		Title:   "Driver CPU usage at increasing load (paper: 6/60/88/97 % load rows)",
		Columns: []string{"CPU load", "kernel", "polling", "web krps", "paper row"},
	}
	rows := []struct {
		webs  int
		conns int
		think sim.Time
		paper string
	}{
		{1, 6, 2 * sim.Millisecond, "6% / 33.3% / 51.8% / 3"},
		{1, 42, 850 * sim.Microsecond, "60% / 14.2% / 27.9% / 45"},
		{2, 42, 850 * sim.Microsecond, "88% / 5.4% / 19.7% / 90"},
		{4, 24, 0, "97% / 0.1% / 7.4% / 242"},
	}
	type t2out struct {
		load, kernel, polling string
		krps                  float64
		err                   error
	}
	outs := RunParallel(len(rows), o.Workers, func(i int) t2out {
		row := rows[i]
		b, err := NewBed(BedConfig{
			Seed: o.seed(), Machine: Xeon, Kind: stack.Single,
			ReplicaSlots: [][]core.ThreadLoc{{loc(2, 0)}, {loc(2, 1)}, {loc(3, 0)}},
			DriverLoc:    loc(0, 0), SyscallLoc: loc(1, 0),
			WebLocs:     threadFill(4, 5, 6, 7)[:row.webs],
			ConnsPerGen: row.conns, ReqPerConn: 100, ThinkTime: row.think,
		})
		if err != nil {
			return t2out{err: err}
		}
		for _, g := range b.Gens {
			g.Start()
		}
		b.Net.Sim.RunFor(o.warm())
		drv := b.Server.Driver.Proc()
		before := drv.Stats()
		busy0 := drv.Thread().BusyTotal()
		t0 := b.Net.Sim.Now()
		for _, g := range b.Gens {
			g.BeginMeasure()
		}
		b.Net.Sim.RunFor(o.window())
		after := drv.Stats()
		window := b.Net.Sim.Now() - t0

		active := float64(after.BusyNs() - before.BusyNs())
		kernel := float64(after.CostNs[sim.CostKernel] - before.CostNs[sim.CostKernel])
		polling := float64(after.CostNs[sim.CostPolling] - before.CostNs[sim.CostPolling])
		load := sim.Utilization(busy0, drv.Thread().BusyTotal(), t0, b.Net.Sim.Now())
		var good uint64
		for _, g := range b.Gens {
			good += g.GoodResponses()
		}
		if active == 0 {
			active = 1
		}
		return t2out{
			load:    fmt.Sprintf("%.0f%%", load*100),
			kernel:  fmt.Sprintf("%.1f%%", kernel/active*100),
			polling: fmt.Sprintf("%.1f%%", polling/active*100),
			krps:    float64(good) / window.Seconds() / 1000,
		}
	})
	for i, row := range rows {
		if outs[i].err != nil {
			res.Notef("row %s: %v", row.paper, outs[i].err)
			continue
		}
		tab.AddRow(outs[i].load, outs[i].kernel, outs[i].polling, outs[i].krps, row.paper)
	}
	res.Tables = append(res.Tables, tab)
	res.Notef("kernel/polling are shares of the driver's *active* time; their absolute share shrinks as load grows")
	return res
}
