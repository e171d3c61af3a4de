package experiments

import (
	"fmt"

	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/report"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// Result is one reproduced experiment: its tables/figures plus notes
// comparing against the paper's reported numbers.
type Result struct {
	Name    string
	Tables  []*report.Table
	Figures []*report.Figure
	Notes   []string
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full result.
func (r *Result) String() string {
	out := "== " + r.Name + " ==\n"
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, f := range r.Figures {
		out += f.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// fullLinuxTuning is Table 1's best row.
var fullLinuxTuning = baseline.Tuning{SchedDeadline: true, Ethtool: true,
	IRQAffinity: true, RxAffinity: true, ServerPinning: true}

// Table1 reproduces the Linux tuning ladder: request rate per option set,
// 12 httperf instances, 1000 requests per connection, 20-byte file.
// Paper: defaults 184.1 — sched+eth+irqAff+rxAff 186.7 — +serv 224.0 krps.
func Table1(o Options) *Result {
	res := &Result{Name: "Table 1: Linux request rate per tuning option (AMD, 12 cores)"}
	tab := &report.Table{
		Title:   "Request rate breakdown per option tuned (paper: 184.1 / 186.7 / 224.0)",
		Columns: []string{"Option tuned", "krps", "paper krps"},
	}
	conns := 128
	if o.Quick {
		conns = 64
	}
	rows := []struct {
		label  string
		tuning baseline.Tuning
		paper  float64
	}{
		{"defaults", baseline.Tuning{}, 184.1},
		{"sched+eth+irqAff+rxAff", baseline.Tuning{SchedDeadline: true, Ethtool: true,
			IRQAffinity: true, RxAffinity: true}, 186.7},
		{"sched+eth+irqAff+rxAff+serv", fullLinuxTuning, 224.0},
	}
	outs := RunParallel(len(rows), o.Workers, func(i int) outcome {
		b, err := NewBed(BedConfig{
			Seed: o.seed(), Machine: AMD,
			LinuxCores: 12, LinuxTuning: rows[i].tuning,
			WebLocs:     coreRange(0, 12),
			ConnsPerGen: conns, ReqPerConn: 1000,
		})
		if err != nil {
			return outcome{err: err}
		}
		return outcome{m: b.Run(o.warm(), o.window())}
	})
	for i, row := range rows {
		if outs[i].err != nil {
			res.Notef("%s: %v", row.label, outs[i].err)
			continue
		}
		tab.AddRow(row.label, outs[i].m.KRPS, row.paper)
	}
	res.Tables = append(res.Tables, tab)
	res.Notef("workload: 12 httperf instances, 1000 req/conn, 20 B file (§6.1)")
	return res
}

// amdFig7Config builds the Figure 7 bed for a config and web count. The
// AMD topology (Fig. 6): core 0 NIC driver, core 1 SYSCALL, stack cores
// next, lighttpd on the remaining cores.
func amdFig7Config(o Options, kind stack.Kind, replicas, webs, connsPerGen, reqPerConn, fileSize int) (Measurement, error) {
	stackCores := replicas
	if kind == stack.Multi {
		stackCores = 2 * replicas
	}
	slots := testbed.SingleSlots(2, replicas)
	if kind == stack.Multi {
		slots = testbed.MultiSlots(2, replicas)
	}
	// Like the paper, one core is reserved for the remaining OS processes
	// (§6.3), one for the NIC driver and one for SYSCALL: 9 cores remain
	// for the stack replicas and lighttpd.
	if 2+stackCores+webs > 11 {
		return Measurement{}, fmt.Errorf("config needs %d cores, AMD has 11 usable", 2+stackCores+webs)
	}
	b, err := NewBed(BedConfig{
		Seed: o.seed(), Machine: AMD, Kind: kind,
		ReplicaSlots: slots,
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs:      coreRange(2+stackCores, webs),
		ConnsPerGen:  connsPerGen, ReqPerConn: reqPerConn,
		FileSize: fileSize,
	})
	if err != nil {
		return Measurement{}, err
	}
	return b.Run(o.warm(), o.window()), nil
}

// Figure7 reproduces the AMD scaling figure: request rate vs number of
// lighttpd instances for NEaT 2x/3x and Multi 1x/2x.
// Paper: Multi 1x linear to 4 instances; Multi 2x to 5; NEaT 2x comparable
// to Multi 2x; NEaT 3x scales to 6 instances at 302 krps (34.8 % above
// Linux's 224).
func Figure7(o Options) *Result {
	res := &Result{Name: "Figure 7: AMD — scaling lighttpd and the network stack"}
	fig := &report.Figure{Title: "Request rate vs lighttpd instances (AMD, 12 cores)",
		XLabel: "#lighttpd", YLabel: "krps"}

	configs := []struct {
		label    string
		kind     stack.Kind
		replicas int
		maxWebs  int
	}{
		{"NEaT 2x", stack.Single, 2, 6},
		{"NEaT 3x", stack.Single, 3, 6},
		{"Multi 1x", stack.Single /*placeholder*/, 1, 6},
		{"Multi 2x", stack.Multi, 2, 6},
	}
	configs[2].kind = stack.Multi

	// Measure all (config, webs) points concurrently; the out-of-cores
	// check runs before the bed is built, so points past a series' break
	// fail cheaply and the break-on-error assembly below matches the
	// sequential shape exactly.
	type job struct{ cfg, webs int }
	var jobs []job
	for ci, c := range configs {
		for w := 1; w <= c.maxWebs; w++ {
			jobs = append(jobs, job{ci, w})
		}
	}
	outs := RunParallel(len(jobs), o.Workers, func(i int) outcome {
		c := configs[jobs[i].cfg]
		m, err := amdFig7Config(o, c.kind, c.replicas, jobs[i].webs, 24, 100, 20)
		return outcome{m: m, err: err}
	})
	var neat3Peak float64
	j := 0
	for _, c := range configs {
		s := fig.NewSeries(c.label)
		for w := 1; w <= c.maxWebs; w++ {
			out := outs[j]
			j++
			if out.err != nil {
				j += c.maxWebs - w // out of cores: stop the series like the paper does
				break
			}
			s.Add(float64(w), out.m.KRPS)
		}
		if c.label == "NEaT 3x" {
			neat3Peak = s.MaxY()
		}
	}
	res.Figures = append(res.Figures, fig)
	res.Notef("NEaT 3x peak: %.1f krps (paper: 302); Linux best: see Table 1 (paper: 224)", neat3Peak)
	res.Notef("paper's headline: NEaT 3x handles 34.8%% more requests than Linux on the same hardware")
	return res
}

// Figure12 reproduces the single-request-per-connection comparison:
// five stack configurations under identical workloads, 1 request per
// connection (maximum per-connection TCP work). Paper y-range: 10-45 krps.
func Figure12(o Options) *Result {
	res := &Result{Name: "Figure 12: AMD — configurations under 1-request-per-connection load"}
	fig := &report.Figure{Title: "Request rate, 1 request per connection (AMD)",
		XLabel: "workload", YLabel: "krps"}

	workloads := []struct {
		x     float64 // the paper's label: conns for one server, 132 = 2srv,32, 164 = 4srv,64
		webs  int
		conns int // per generator
	}{
		{8, 1, 8},
		{16, 1, 16},
		{32, 1, 32},
		{64, 1, 64},
		{132, 2, 16}, // 32 connections split over 2 instances
		{164, 4, 16}, // 64 connections split over 4 instances
	}
	configs := []struct {
		label    string
		kind     stack.Kind
		replicas int
	}{
		{"NEaT 1x", stack.Single, 1},
		{"NEaT 2x", stack.Single, 2},
		{"NEaT 3x", stack.Single, 3},
		{"Multi 1x", stack.Multi, 1},
		{"Multi 2x", stack.Multi, 2},
	}
	outs := RunParallel(len(configs)*len(workloads), o.Workers, func(i int) outcome {
		c := configs[i/len(workloads)]
		w := workloads[i%len(workloads)]
		m, err := amdFig7Config(o, c.kind, c.replicas, w.webs, w.conns, 1, 20)
		return outcome{m: m, err: err}
	})
	for ci, c := range configs {
		s := fig.NewSeries(c.label)
		for wi, w := range workloads {
			out := outs[ci*len(workloads)+wi]
			if out.err != nil {
				continue
			}
			s.Add(w.x, out.m.KRPS)
		}
	}
	res.Figures = append(res.Figures, fig)
	res.Notef("x axis encodes the test configuration: conns for 1 server; 2srv,32 and 4srv,64 as in the paper")
	res.Notef("paper: at light load (8 conns) Multi 1x beats Multi 2x (sleep latency); at higher loads more replicas win")
	return res
}

// coreRange builds n thread locs on consecutive cores (thread 0).
func coreRange(first, n int) []core.ThreadLoc {
	out := make([]core.ThreadLoc, n)
	for i := range out {
		out[i] = core.ThreadLoc{Core: first + i}
	}
	return out
}
