package main

import (
	"crypto/md5"
	"fmt"
	"sort"
	"strings"

	"neat/internal/core"
	"neat/internal/nicdev"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/trace"
	"neat/internal/wire"
)

// sample is what one repetition (one fresh bed, one measured window)
// yields. Host fields are wall-clock facts about this process; model
// fields are simulated results and must repeat exactly for a fixed seed.
type sample struct {
	setupS  float64 // host seconds outside the window: build, boot, warm-up, forced GCs, teardown
	host    hostCost
	live    uint64  // HeapAlloc after a forced GC, population still alive
	calibNs float64 // mean of the calibrations taken just before and just after the window

	ops       uint64 // good operations in the window
	attempted uint64
	failed    uint64 // failed or timed-out operations, fault-induced ones included
	// unexpected are failures the workload does not provoke itself; any of
	// them fails the run.
	unexpected uint64
	violations []string // correctness violations (byte or length mismatch, control-farm error, ...)

	simWindow  sim.Time
	bodyBytes  uint64 // verified body bytes delivered to clients in the window
	latP50Us   float64
	latTailUs  float64
	latSamples uint64

	counts layerCounts
	hops   map[string]hopAgg // modeled per-hop time by component (traced repetitions only)
	digest string            // md5 over every simulated counter of the bed
}

// layerCounts are the window's work counts per layer, server side (client
// machines generate load and are deliberately oversized, so they are left
// out). Counts a workload bypasses stay zero.
type layerCounts struct {
	events        uint64
	timersFired   uint64
	timerCascades uint64
	timersPending int
	ipc           sim.IPCStats

	wireFrames  uint64
	wireDropped uint64
	linkUtil    float64 // busiest direction, fraction of line rate

	nic    nicdev.NICStats
	driver nicdev.DriverStats

	driverCycles  int64
	replicaCycles int64
	syscallCycles int64

	tcp          tcpeng.Stats
	poolReused   uint64
	connsCreated uint64 // server-side PCBs created (passive opens)

	core       core.Stats
	faults     uint64
	faultErrs  uint64 // client-visible errors in the window of a workload that injects faults
	detectUs   float64
	recoveryUs float64
	failoverUs float64

	traceSpans uint64 // tracer hop traversals (traced repetitions only)

	pdesBarriers uint64
}

// hopAgg sums modeled queueing and processing time over the hops of one
// component.
type hopAgg struct {
	count        uint64
	queueNs      float64
	processingNs float64
}

func (a hopAgg) meanQueueUs() float64 { return div(a.queueNs, float64(a.count)) / 1e3 }

func (a hopAgg) meanProcUs() float64 { return div(a.processingNs, float64(a.count)) / 1e3 }

// foldHops aggregates a tracer breakdown by component over the hops keep
// accepts.
func foldHops(t *trace.Tracer, keep func(hop string) bool) (map[string]hopAgg, uint64) {
	out := map[string]hopAgg{}
	var total uint64
	for _, sp := range t.Breakdown() {
		total += sp.Count
		if !keep(sp.Hop) {
			continue
		}
		a := out[sp.Component]
		a.count += sp.Count
		a.queueNs += float64(sp.Queue.Mean()) * float64(sp.Count)
		a.processingNs += float64(sp.Proc.Mean()) * float64(sp.Count)
		out[sp.Component] = a
	}
	return out, total
}

// sysSnap is a point-in-time copy of one NEaT system's cumulative
// counters; two of them bracket a window.
type sysSnap struct {
	nic        nicdev.NICStats
	driver     nicdev.DriverStats
	tcp        tcpeng.Stats
	poolReused uint64
	core       core.Stats
}

func snapSystem(sys *core.System) sysSnap {
	s := sysSnap{
		nic:    sys.Driver().NIC().Stats(),
		driver: sys.Driver().Stats(),
		core:   sys.Stats(),
	}
	for _, r := range sys.Replicas() {
		addTCP(&s.tcp, r.TCP().Stats())
		s.poolReused += r.TCP().PoolStats().Reused
	}
	return s
}

// addTCP accumulates the engine counters the per-layer metrics read.
func addTCP(dst *tcpeng.Stats, st tcpeng.Stats) {
	dst.SegsIn += st.SegsIn
	dst.SegsOut += st.SegsOut
	dst.Retransmits += st.Retransmits
	dst.FastRetransmits += st.FastRetransmits
	dst.AcceptedConns += st.AcceptedConns
}

// sub0 is a-b clamped at zero: a replica rebuilt after a crash restarts
// its engine counters, so a cumulative sum can step backwards.
func sub0(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// addWindow adds the difference of two snapshots to the layer counts.
func (c *layerCounts) addWindow(a, b sysSnap) {
	c.nic.RxFrames += sub0(b.nic.RxFrames, a.nic.RxFrames)
	c.nic.RxDropFull += sub0(b.nic.RxDropFull, a.nic.RxDropFull)
	c.nic.RxDropBad += sub0(b.nic.RxDropBad, a.nic.RxDropBad)
	c.nic.RxDropNoRSS += sub0(b.nic.RxDropNoRSS, a.nic.RxDropNoRSS)
	c.nic.RxFiltered += sub0(b.nic.RxFiltered, a.nic.RxFiltered)
	c.nic.RxHashed += sub0(b.nic.RxHashed, a.nic.RxHashed)
	c.nic.TxFrames += sub0(b.nic.TxFrames, a.nic.TxFrames)
	c.nic.TSOSegments += sub0(b.nic.TSOSegments, a.nic.TSOSegments)
	c.driver.RxDispatched += sub0(b.driver.RxDispatched, a.driver.RxDispatched)
	c.driver.Polls += sub0(b.driver.Polls, a.driver.Polls)
	c.tcp.SegsIn += sub0(b.tcp.SegsIn, a.tcp.SegsIn)
	c.tcp.SegsOut += sub0(b.tcp.SegsOut, a.tcp.SegsOut)
	c.tcp.Retransmits += sub0(b.tcp.Retransmits, a.tcp.Retransmits)
	c.tcp.FastRetransmits += sub0(b.tcp.FastRetransmits, a.tcp.FastRetransmits)
	c.tcp.AcceptedConns += sub0(b.tcp.AcceptedConns, a.tcp.AcceptedConns)
	c.poolReused += sub0(b.poolReused, a.poolReused)
	c.connsCreated += sub0(b.tcp.AcceptedConns, a.tcp.AcceptedConns)
	c.core.Recoveries += sub0(b.core.Recoveries, a.core.Recoveries)
	c.core.ConnectionsLost += sub0(b.core.ConnectionsLost, a.core.ConnectionsLost)
	c.core.FiltersInstalled += sub0(b.core.FiltersInstalled, a.core.FiltersInstalled)
}

// simSnap is a point-in-time copy of the simulator's own counters.
type simSnap struct {
	now    sim.Time
	events uint64
	timers sim.TimerStats
	ipc    sim.IPCStats
}

func snapSim(s *sim.Simulator) simSnap {
	return simSnap{now: s.Now(), events: s.EventsRun(), timers: s.TimerStats(), ipc: s.IPCStats()}
}

// addSim adds what the simulator did between two snapshots; the timer
// residency is the later snapshot's.
func (c *layerCounts) addSim(a, b simSnap) {
	c.events += b.events - a.events
	c.timersFired += b.timers.Fired - a.timers.Fired
	c.timerCascades += b.timers.Cascades - a.timers.Cascades
	c.timersPending = b.timers.Pending
	c.ipc = sim.IPCStats{
		Sends:      b.ipc.Sends - a.ipc.Sends,
		SlowPath:   b.ipc.SlowPath - a.ipc.SlowPath,
		WakesSaved: b.ipc.WakesSaved - a.ipc.WakesSaved,
		Stalls:     b.ipc.Stalls - a.ipc.Stalls,
		Batches:    b.ipc.Batches - a.ipc.Batches,
		BatchMsgs:  b.ipc.BatchMsgs - a.ipc.BatchMsgs,
	}
}

// addLink adds one link's frames and drops since before, and keeps the
// utilisation of the busiest direction seen so far.
func (c *layerCounts) addLink(l *wire.Link, before wire.LinkStats, since sim.Time) {
	now := l.Stats()
	for dir := 0; dir < 2; dir++ {
		c.wireFrames += now.Frames[dir] - before.Frames[dir]
		c.wireDropped += now.Dropped[dir] - before.Dropped[dir]
		c.linkUtil = max(c.linkUtil, l.Utilization(dir, before.Bytes[dir], since))
	}
}

// procCycles sums the cycles charged so far to every process, dead
// incarnations included, on the machines keep accepts, by component.
func procCycles(s *sim.Simulator, keep func(m *sim.Machine) bool) map[string]int64 {
	out := map[string]int64{}
	for _, p := range s.Procs() {
		if keep(p.Machine()) {
			out[p.Component] += p.Stats().TotalCharged
		}
	}
	return out
}

// addCycles adds the cycle difference of two procCycles snapshots.
func (c *layerCounts) addCycles(a, b map[string]int64) {
	for comp, v := range b {
		d := v - a[comp]
		switch comp {
		case "driver":
			c.driverCycles += d
		case "syscall":
			c.syscallCycles += d
		case "tcp", "ip":
			c.replicaCycles += d
		}
	}
}

// digestOf hashes the rendered simulated state of a repetition.
func digestOf(parts ...string) string {
	return fmt.Sprintf("%x", md5.Sum([]byte(strings.Join(parts, "\n"))))
}

// setLatencies takes the window's latency samples (simulated µs) and
// keeps the median and the tail: the mean of the slowest 1 % (everything
// from the 99th percentile up; every workload has at least 27 samples
// there). The tail mean is used instead of the 99th percentile itself
// because the latter sits on a plateau on some workloads — the same
// nanosecond for every seed — and so cannot show a small shift.
func (s *sample) setLatencies(us []float64) {
	sort.Float64s(us)
	s.latSamples = uint64(len(us))
	if n := len(us); n > 0 {
		s.latP50Us = us[n/2]
		tail := us[n*99/100:]
		var sum float64
		for _, v := range tail {
			sum += v
		}
		s.latTailUs = sum / float64(len(tail))
	}
}
