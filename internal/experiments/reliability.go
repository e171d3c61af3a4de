package experiments

import (
	"fmt"

	"neat/internal/faultinject"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// Table3 reproduces the fault-injection experiment of §6.6: inject faults
// into randomly selected code sites of a running multi-component NEaT
// stack, collect failing runs, and classify the recovery.
// Paper: 53.8 % fully transparent recovery, 46.2 % TCP connections lost.
func Table3(o Options) *Result {
	res := &Result{Name: "Table 3: fault injection — recovery outcome over failing runs"}
	runs := 100
	observe := 300 * sim.Millisecond
	if o.Quick {
		runs = 24
		observe = 80 * sim.Millisecond
	}

	type t3out struct {
		outcome faultinject.Outcome
		ok      bool
	}
	outs := RunParallel(runs, o.Workers, func(i int) t3out {
		oc, ok := faultRun(o, int64(i+1), observe)
		return t3out{outcome: oc, ok: ok}
	})
	var transparent, tcpLost, unreachable int
	for _, out := range outs {
		if !out.ok {
			unreachable++
			continue
		}
		switch out.outcome {
		case faultinject.OutcomeTransparent:
			transparent++
		case faultinject.OutcomeTCPLost:
			tcpLost++
		}
	}
	total := transparent + tcpLost
	tab := &report.Table{
		Title:   fmt.Sprintf("Recovery outcomes over %d failing runs", total),
		Columns: []string{"outcome", "runs", "share", "paper"},
	}
	pct := func(n int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total)) }
	tab.AddRow("fully transparent recovery", transparent, pct(transparent), "53.8%")
	tab.AddRow("TCP connections lost", tcpLost, pct(tcpLost), "46.2%")
	res.Tables = append(res.Tables, tab)
	if unreachable > 0 {
		res.Notef("%d runs left the server unreachable — recovery failed (paper reports none)", unreachable)
	} else {
		res.Notef("after every failure the server was reachable again and accepted new connections (§6.6)")
	}
	return res
}

// faultRun executes one injection run and classifies it; ok is false if
// the service did not come back.
func faultRun(o Options, seed int64, observe sim.Time) (faultinject.Outcome, bool) {
	b, err := NewBed(BedConfig{
		Seed: seed, Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 2),
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      coreRange(6, 2),
		ConnsPerGen:  16, ReqPerConn: 100,
		Timeout: 150 * sim.Millisecond,
	})
	if err != nil {
		return 0, false
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Net.Sim.RunFor(20 * sim.Millisecond)

	inj := faultinject.New(b.Net.Sim.Rand(), nil)
	injection, ok := inj.Inject(b.NEaT)
	if !ok {
		return 0, false
	}
	b.Net.Sim.RunFor(observe)

	// Service must be reachable again: responses must still flow at the
	// end of the observation window.
	var before uint64
	for _, g := range b.Gens {
		before += g.Stats().ResponsesOK
	}
	b.Net.Sim.RunFor(40 * sim.Millisecond)
	var after uint64
	for _, g := range b.Gens {
		after += g.Stats().ResponsesOK
	}
	if after <= before {
		return 0, false
	}

	st := b.NEaT.Stats()
	if st.TCPStateLost > 0 {
		return faultinject.OutcomeTCPLost, true
	}
	if st.TransparentRecov > 0 {
		// Double-check the claim: transparent means no connection died.
		if st.ConnectionsLost > 0 {
			return faultinject.OutcomeTCPLost, true
		}
		_ = injection
		return faultinject.OutcomeTransparent, true
	}
	return 0, false
}

// Figure13 reproduces the reliability/performance trade-off: expected
// fraction of state preserved after a failure vs maximum throughput for
// the Xeon configurations. Preservation follows the paper's model: with
// the stateless TCP recovery strategy only the failing replica's TCP
// state is lost, so a single-component N-replica stack preserves (N-1)/N
// and a multi-component stack 1 - P(tcp)/N, with P(tcp) = 46.2 % from the
// component code-size weights.
func Figure13(o Options) *Result {
	res := &Result{Name: "Figure 13: expected state preserved after a failure vs max throughput (Xeon)"}
	tab := &report.Table{
		Title:   "State preserved vs max throughput per configuration",
		Columns: []string{"configuration", "preserved", "max krps"},
	}
	pTCP := faultinject.New(nil, nil).TCPShare()

	type cfg struct {
		label    string
		kind     stack.Kind
		replicas int
		series   xeonSeries
	}
	configs := []cfg{
		{"NEaT 1x (1 core)", stack.Single, 1, xeonSeries{
			kind:   stack.Single,
			slots:  [][]testbed.ThreadLoc{{loc(2, 0)}},
			driver: loc(0, 0), syscall: loc(1, 0),
			webFill: threadFill(3, 4, 5, 6, 7), points: []int{4}}},
		{"NEaT 2x (2 cores)", stack.Single, 2, xeonSeries{
			kind:   stack.Single,
			slots:  [][]testbed.ThreadLoc{{loc(2, 0)}, {loc(3, 0)}},
			driver: loc(0, 0), syscall: loc(1, 0),
			webFill: threadFill(4, 5, 6, 7), points: []int{6}}},
		{"NEaT 3x (3 cores)", stack.Single, 3, xeonSeries{
			kind:   stack.Single,
			slots:  [][]testbed.ThreadLoc{{loc(1, 0)}, {loc(2, 0)}, {loc(3, 0)}},
			driver: loc(0, 0), syscall: loc(0, 1),
			webFill: threadFill(4, 5, 6, 7), points: []int{8}}},
		{"NEaT 4x (2 cores, 4 threads)", stack.Single, 4, xeonSeries{
			kind: stack.Single,
			slots: [][]testbed.ThreadLoc{
				{loc(1, 0)}, {loc(1, 1)}, {loc(2, 0)}, {loc(2, 1)}},
			driver: loc(0, 0), syscall: loc(0, 1),
			webFill: threadFill(3, 4, 5, 6, 7), points: []int{9}}},
		{"Multi 1x (2 cores)", stack.Multi, 1, xeonSeries{
			kind:   stack.Multi,
			slots:  [][]testbed.ThreadLoc{{loc(2, 0), loc(3, 0)}},
			driver: loc(0, 0), syscall: loc(1, 0),
			webFill: threadFill(4, 5, 6, 7), points: []int{4}}},
		{"Multi 2x (4 cores)", stack.Multi, 2, xeonSeries{
			kind:   stack.Multi,
			slots:  [][]testbed.ThreadLoc{{loc(2, 0), loc(3, 0)}, {loc(4, 0), loc(5, 0)}},
			driver: loc(0, 0), syscall: loc(1, 0),
			webFill: []testbed.ThreadLoc{loc(6, 0), loc(7, 0), loc(6, 1), loc(7, 1),
				loc(3, 1), loc(5, 1), loc(2, 1), loc(4, 1)},
			points: []int{8}}},
		{"Multi 2x (2 cores, 4 threads)", stack.Multi, 2, xeonSeries{
			kind: stack.Multi,
			slots: [][]testbed.ThreadLoc{
				{loc(2, 0), loc(1, 0)}, {loc(2, 1), loc(1, 1)}},
			driver: loc(0, 0), syscall: loc(0, 1),
			webFill: threadFill(3, 4, 5, 6, 7), points: []int{8}}},
	}

	fig := &report.Figure{Title: "Preserved state vs max throughput",
		XLabel: "max krps", YLabel: "% state preserved"}
	curve := fig.NewSeries("configurations")
	// Each configuration has a single measured point, so the parallelism
	// lives at the configuration level; the series themselves run their
	// (one-point) sweeps sequentially.
	seq := o
	seq.Workers = 1
	maxes := RunParallel(len(configs), o.Workers, func(i int) float64 {
		tmp := &report.Figure{}
		return runXeonSeries(seq, configs[i].series, tmp, 24).MaxY()
	})
	for i, c := range configs {
		preserved := 100 * (1 - 1/float64(c.replicas))
		if c.kind == stack.Multi {
			preserved = 100 * (1 - pTCP/float64(c.replicas))
		}
		tab.AddRow(c.label, fmt.Sprintf("%.1f%%", preserved), maxes[i])
		curve.Add(maxes[i], preserved)
	}
	res.Tables = append(res.Tables, tab)
	res.Figures = append(res.Figures, fig)
	res.Notef("paper: performance AND reliability both increase with the replica count — no trade-off")
	res.Notef("single-component replicas lose all state of the failing replica; multi-component ones only with P(tcp)=%.1f%%", 100*pTCP)
	return res
}

// All runs every experiment in paper order.
func All(o Options) []*Result {
	return []*Result{
		Table1(o),
		Figure4(o),
		Figure5(o),
		Figure7(o),
		Figure9(o),
		Figure11(o),
		Figure12(o),
		Table2(o),
		Table3(o),
		Figure13(o),
	}
}
