package experiments

import (
	"fmt"

	"neat/internal/app"
	"neat/internal/ipc"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// The IPC fast-path campaign measures the modeled message rings under the
// repository's three pipeline shapes — a single-component replica stack, a
// multi-component (IP|TCP split) stack and the multi-machine cluster — each
// in both wake modes: per-message doorbells (the calibrated default) and
// opt-in wake coalescing, where a send finding its ring already armed skips
// the doorbell and rides the in-flight predecessor's delivery window.
//
// Every number printed is simulation-derived (no wall clock), and the
// workload follows the cluster campaign's determinism recipe — fixed
// local-port plans, no loss, no behavior-relevant randomness. `make verify`
// pins the md5 of `neat-bench -only ipc -quick`.

// IPCPoint is one measured (pipeline, wake mode) cell.
type IPCPoint struct {
	Pipeline string // "single", "multi" or "cluster"
	Coalesce bool
	KRPS     float64
	Stats    sim.IPCStats
}

// ipcLinkBed measures one single-link pipeline (single- or multi-component
// replicas) under the given wake mode. Determinism shape: one web instance,
// so the client system runs one stack and connect placement is draw-free,
// and a planned local-port range, so connection 4-tuples — and with them
// RSS placement — are invariant to event interleaving.
func ipcLinkBed(o Options, kind stack.Kind, coalesce bool) (Measurement, sim.IPCStats, error) {
	const replicas, webs = 2, 1
	stackCores := replicas
	slots := testbed.SingleSlots(2, replicas)
	if kind == stack.Multi {
		stackCores = 2 * replicas
		slots = testbed.MultiSlots(2, replicas)
	}
	conns := 32
	if o.Quick {
		conns = 16
	}
	plans := make([]app.PortPlan, webs)
	for i := range plans {
		plans[i] = sequentialPorts(uint16(20000 + i*2048))
	}
	b, err := NewBed(BedConfig{
		Seed: o.seed(), Machine: AMD, Kind: kind,
		ReplicaSlots: slots,
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      coreRange(2+stackCores, webs),
		ConnsPerGen:  conns, ReqPerConn: 50,
		// Multi-segment responses: consecutive segments of one response are
		// back-to-back sends on the same channel, the window coalescing
		// exists to batch.
		FileSize: 8192,
		GenPorts: plans,
		IPC:      ipc.Tuning{CoalesceWakes: coalesce},
	})
	if err != nil {
		return Measurement{}, sim.IPCStats{}, err
	}
	m := b.Run(o.warm(), o.window())
	return m, b.Net.Sim.IPCStats(), nil
}

// ipcClusterBed measures the cluster pipeline (farms behind the L4 tier)
// under the given wake mode.
func ipcClusterBed(o Options, coalesce bool) (Measurement, sim.IPCStats, error) {
	// The default topology and single-segment responses, the shape the
	// cluster campaign's determinism recipe (cluster.go) was built for.
	b, err := NewClusterBed(ClusterBedConfig{
		Seed:  o.seed(),
		Farms: 2, MembersPerFarm: 2, ReplicasPerMember: 2,
		Clients: 2, Tenants: 2,
		ConnsPerGen: 4, ReqPerConn: 25,
		IPC: ipc.Tuning{CoalesceWakes: coalesce},
	})
	if err != nil {
		return Measurement{}, sim.IPCStats{}, err
	}
	m := b.Run(o.warm(), o.window())
	return m, b.Sim.IPCStats(), nil
}

// ipcFastPathPoints measures all (pipeline, wake mode) cells.
func ipcFastPathPoints(o Options) ([]IPCPoint, error) {
	var points []IPCPoint
	for _, p := range []struct {
		name string
		kind stack.Kind
	}{{"single", stack.Single}, {"multi", stack.Multi}, {"cluster", 0}} {
		for _, coalesce := range []bool{false, true} {
			var (
				m   Measurement
				is  sim.IPCStats
				err error
			)
			if p.name == "cluster" {
				m, is, err = ipcClusterBed(o, coalesce)
			} else {
				m, is, err = ipcLinkBed(o, p.kind, coalesce)
			}
			if err != nil {
				return nil, fmt.Errorf("%s pipeline: %w", p.name, err)
			}
			points = append(points, IPCPoint{
				Pipeline: p.name, Coalesce: coalesce, KRPS: m.KRPS, Stats: is})
		}
	}
	return points, nil
}

// IPCFastPath runs the campaign and reports it as tables.
func IPCFastPath(o Options) *Result {
	res := &Result{Name: "IPC fast path: message rings and doorbell coalescing across pipeline shapes"}
	points, err := ipcFastPathPoints(o)
	if err != nil {
		res.Notef("campaign failed: %v", err)
		return res
	}

	tab := &report.Table{
		Title: "Channel activity per wake mode (doorbells = sends - saved)",
		Columns: []string{"pipeline", "wakes", "sends", "doorbells", "saved",
			"slow", "stalls", "depth hw", "vectors", "avg vec", "krps"},
	}
	for _, p := range points {
		mode := "per-msg"
		if p.Coalesce {
			mode = "coalesced"
		}
		avg := 0.0
		if p.Stats.Batches > 0 {
			avg = float64(p.Stats.BatchMsgs) / float64(p.Stats.Batches)
		}
		tab.AddRow(p.Pipeline, mode,
			fmt.Sprintf("%d", p.Stats.Sends),
			fmt.Sprintf("%d", p.Stats.Sends-p.Stats.WakesSaved),
			fmt.Sprintf("%d", p.Stats.WakesSaved),
			fmt.Sprintf("%d", p.Stats.SlowPath),
			fmt.Sprintf("%d", p.Stats.Stalls),
			fmt.Sprintf("%d", p.Stats.DepthHW),
			fmt.Sprintf("%d", p.Stats.Batches),
			fmt.Sprintf("%.2f", avg),
			fmt.Sprintf("%.1f", p.KRPS))
	}
	res.Tables = append(res.Tables, tab)

	hist := &report.Table{
		Title:   "Delivery vector size histogram (per-msg wake mode)",
		Columns: append([]string{"pipeline"}, ipcBucketLabels()...),
	}
	for _, p := range points {
		if p.Coalesce {
			continue
		}
		row := []interface{}{p.Pipeline}
		for _, n := range p.Stats.BatchHist {
			row = append(row, fmt.Sprintf("%d", n))
		}
		hist.AddRow(row...)
	}
	res.Tables = append(res.Tables, hist)

	res.Notef("sends traverse modeled SPSC rings; \"saved\" counts sends that found the ring armed and skipped their doorbell (coalesced mode only)")
	res.Notef("\"slow\" sends paid the kernel-assisted latency (colocated endpoints); \"stalls\" found the ring full and waited for the head slot")
	res.Notef("\"vectors\" are same-timestamp delivery batches the dispatcher carried as one event; \"avg vec\" their mean size")
	return res
}

// ipcBucketLabels names the histogram columns.
func ipcBucketLabels() []string {
	out := make([]string, 0, 12)
	for i := 0; ; i++ {
		l := sim.IPCBatchBucketLabel(i)
		out = append(out, l)
		if l == "65+" {
			return out
		}
	}
}
