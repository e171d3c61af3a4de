package experiments

import (
	"fmt"

	"neat/internal/core"
	"neat/internal/faultinject"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
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
		oc, ok := table3Run(int64(i+1), observe)
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

// table3Run executes one §6.6 injection run and classifies it; ok is false
// if the service did not come back.
func table3Run(seed int64, observe sim.Time) (faultinject.Outcome, bool) {
	fr, err := runFault(seed, faultinject.KindCrash, "", observe, false)
	if err != nil || !fr.reachable {
		return 0, false
	}
	st := fr.b.NEaT.Stats()
	switch {
	case st.TCPStateLost > 0:
		return faultinject.OutcomeTCPLost, true
	case st.TransparentRecov > 0 && st.ConnectionsLost > 0:
		// Transparent means no connection died.
		return faultinject.OutcomeTCPLost, true
	case st.TransparentRecov > 0:
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

	configs := []struct {
		label  string
		series xeonSeries
	}{
		{"NEaT 1x (1 core)", neat1x.at(4)},
		{"NEaT 2x (2 cores)", neat2x.at(6)},
		{"NEaT 3x (3 cores)", xeonSeries{
			kind:   stack.Single,
			slots:  [][]core.ThreadLoc{{loc(1, 0)}, {loc(2, 0)}, {loc(3, 0)}},
			driver: loc(0, 0), syscall: loc(0, 1),
			webFill: threadFill(4, 5, 6, 7), points: []int{8}}},
		{"NEaT 4x (2 cores, 4 threads)", neat4xHT.at(9)},
		{"Multi 1x (2 cores)", multi1x.at(4)},
		{"Multi 2x (4 cores)", multi2x.at(8)},
		{"Multi 2x (2 cores, 4 threads)", multi2xHT.at(8)},
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
		replicas := float64(len(c.series.slots))
		preserved := 100 * (1 - 1/replicas)
		if c.series.kind == stack.Multi {
			preserved = 100 * (1 - pTCP/replicas)
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
