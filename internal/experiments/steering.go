package experiments

import (
	"fmt"
	"strings"

	"neat/internal/core"
	"neat/internal/report"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/testbed"
)

// The steering campaign compares the three flow placement policies under a
// uniform and a skewed (elephant-flow) workload. It is not a figure from
// the paper: the paper fixes RSS-modulo placement (§3.4) and the campaign
// measures what the placement plane extension buys on top of it.
//
//   - uniform: every lighttpd serves the paper's 20 B file, so every
//     connection costs the same and hash placement is already balanced;
//   - skewed: one lighttpd serves a 64 KiB file (an "elephant" stream per
//     request) while the rest serve 20 B mice, so the replica that the
//     elephant flows hash onto saturates while its siblings idle — unless
//     the policy is load-aware.
//
// Reported per cell: goodput, errors, p99 latency, and the per-replica
// spread of accepted connections (max/mean imbalance), which is the figure
// the least-loaded policy optimizes.

// steeringPolicies enumerates the campaign's policy axis in report order.
var steeringPolicies = []steer.PolicyKind{
	steer.PolicyHash, steer.PolicyRing, steer.PolicyLeastLoaded,
}

// steeringOut is one cell's measurement plus the per-replica placement
// spread.
type steeringOut struct {
	m        Measurement
	accepted []uint64
	err      error
}

// SteeringSkew runs the placement-policy comparison: every policy against
// a uniform and an elephant-flow workload, same seed per cell.
func SteeringSkew(o Options) *Result {
	res := &Result{Name: "Steering: placement policy × workload skew"}

	type cell struct {
		policy steer.PolicyKind
		skewed bool
	}
	var cells []cell
	for _, skewed := range []bool{false, true} {
		for _, p := range steeringPolicies {
			cells = append(cells, cell{policy: p, skewed: skewed})
		}
	}

	outs := RunParallel(len(cells), o.Workers, func(i int) steeringOut {
		c := cells[i]
		return steeringRun(o, c.policy, c.skewed)
	})

	tab := &report.Table{
		Title: "Goodput and placement balance per policy (4 single-component replicas)",
		Columns: []string{"workload", "policy", "krps", "errors", "p99 lat",
			"accepted/replica", "imbalance"},
	}
	for i, c := range cells {
		out := outs[i]
		wl := "uniform"
		if c.skewed {
			wl = "skewed"
		}
		if out.err != nil {
			tab.AddRow(wl, c.policy.String(), "-", "-", "-", out.err.Error(), "-")
			continue
		}
		tab.AddRow(wl, c.policy.String(),
			fmt.Sprintf("%.1f", out.m.KRPS), out.m.Errors,
			fmt.Sprintf("%v", out.m.P99Lat),
			joinCounts(out.accepted),
			fmt.Sprintf("%.2f", imbalance(out.accepted)))
	}
	res.Tables = append(res.Tables, tab)
	res.Notef("skewed workload: lighttpd0 serves a 64 KiB elephant file, the rest 20 B mice")
	res.Notef("imbalance = max/mean accepted connections per replica (1.00 = perfectly even)")
	res.Notef("established connections never migrate under any policy: flow-director filters pin them (§3.4)")
	return res
}

// steeringRun measures one (policy, workload) cell on a fresh bed.
func steeringRun(o Options, policy steer.PolicyKind, skewed bool) steeringOut {
	const replicas = 4
	cfg := BedConfig{
		Seed: o.seed(), Machine: AMD, Kind: stack.Single,
		ReplicaSlots: testbed.SingleSlots(2, replicas),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs:      coreRange(2+replicas, 4),
		ConnsPerGen:  16, ReqPerConn: 100,
		Steering: steer.Config{Policy: policy},
	}
	if skewed {
		cfg.FileSizes = []int{64 << 10, 20, 20, 20}
	}
	b, err := NewBed(cfg)
	if err != nil {
		return steeringOut{err: err}
	}
	m := b.Run(o.warm(), o.window())
	var accepted []uint64
	for _, r := range b.NEaT.Replicas() {
		accepted = append(accepted, r.TCP().Stats().AcceptedConns)
	}
	return steeringOut{m: m, accepted: accepted}
}

// joinCounts renders a per-replica count vector.
func joinCounts(v []uint64) string {
	parts := make([]string, len(v))
	for i, c := range v {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, "/")
}

// imbalance is max/mean of a count vector (1.0 = perfectly even).
func imbalance(v []uint64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum, max uint64
	for _, c := range v {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(v))
	return float64(max) / mean
}
