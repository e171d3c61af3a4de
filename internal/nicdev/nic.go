// Package nicdev models the Intel i82599-class 10G NIC of the paper's
// testbed together with its driver process.
//
// The NIC is the hardware half of NEaT's partitioning story (§3.1, §4):
// it owns multiple RX/TX queue pairs — one pair per network stack replica —
// and steers every incoming packet to the queue of the replica that owns
// the packet's flow, using exact-match flow-director filters when
// installed and a 5-tuple RSS hash over the enabled queues otherwise.
// Because the hardware enforces flow affinity, the replicas never need to
// talk to each other.
//
// The driver is a normal isolated process (the paper runs exactly one; §3.5
// argues a single core suffices for 10G). It moves packets between NIC
// queues and replica processes and accounts its cycles in the categories of
// the paper's Table 2: useful processing, polling, and kernel
// suspend/resume time.
package nicdev

import (
	"fmt"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/wire"
)

// RX frames are delivered by the driver to the replica owning the frame's
// queue as bare *proto.Frame messages. The NIC pre-decodes the frame (hardware parses headers anyway for
// classification); replicas charge their own protocol-processing cycles.

// TxFrame asks the driver to transmit a fully serialized frame. Hot paths
// send the pooled pointer form (NewTxFrame); the driver recycles the box
// after transmitting. The value form also works, for hand-built test
// traffic.
type TxFrame struct {
	Raw  []byte
	pool *sim.Pool[TxFrame]
}

// TX request boxes come from the sending simulator's free lists: a box
// has exactly one owner at a time, handed from the sending replica to the
// driver on the same machine, and remembers the list it returns to.
var (
	txFramePool = sim.NewPoolKind[TxFrame]("tx_frame")
	txTSOPool   = sim.NewPoolKind[TxTSO]("tx_tso")
)

// NewTxFrame returns a TX request carrying raw, boxed from s's free list.
// Ownership of the box passes to the driver with the send; the driver
// recycles it after posting the frame.
func NewTxFrame(s *sim.Simulator, raw []byte) *TxFrame {
	pool := txFramePool.Of(s)
	m := pool.Get()
	*m = TxFrame{Raw: raw, pool: pool}
	return m
}

// NewTxTSO returns a copy of t boxed from s's free list. Ownership follows
// NewTxFrame.
func NewTxTSO(s *sim.Simulator, t TxTSO) *TxTSO {
	pool := txTSOPool.Of(s)
	m := pool.Get()
	*m = t
	m.pool = pool
	return m
}

// TxTSO asks the driver to transmit a large TCP send using TCP segmentation
// offload: the NIC slices Payload into MSS-sized segments, cloning the
// prototype headers and advancing sequence numbers in hardware. This is the
// feature that lets small configurations saturate 10 Gb/s in §6 with large
// files. Payload belongs to the descriptor: the sender does not touch it
// again and NIC.SendTSO releases it (a descriptor lost on the way leaves it
// to the GC).
type TxTSO struct {
	Eth     proto.EthernetHeader
	IP      proto.IPv4Header
	TCP     proto.TCPHeader
	Payload []byte
	MSS     int
	pool    *sim.Pool[TxTSO]
}

// defaultQueueDepth is the per-RX-queue capacity in frames; overflow is
// dropped by the hardware, as on a real NIC under overload.
const defaultQueueDepth = 512

// NICStats counts NIC-level events.
type NICStats struct {
	RxFrames    uint64
	RxDropFull  uint64 // RX queue overflow drops
	RxDropBad   uint64 // undecodable frames
	RxDropNoRSS uint64 // unmatched flows dropped while the RSS set is empty
	RxFiltered  uint64 // frames steered by an exact filter
	RxHashed    uint64 // frames steered by RSS
	TxFrames    uint64
	TSORequests uint64
	TSOSegments uint64
}

// RSSPolicy steers unpinned flows to a queue: the software-programmable
// half of the RSS indirection. QueueFor maps a flow hash to the RX queue
// that should own it, or -1 to drop (no queue can accept new flows). The
// flow-placement plane (internal/steer) provides implementations; a NIC
// without a policy hashes over all of its queues (hash%queues).
type RSSPolicy interface {
	QueueFor(hash uint32) int
}

// NIC is the device model. It is not a process: it is hardware that reacts
// to wire deliveries and driver register writes instantly (plus a small
// fixed pipeline latency).
type NIC struct {
	sim  *sim.Simulator
	port wire.Endpoint

	Name string
	MAC  proto.MAC

	// PipelineLatency is the RX classification + DMA latency.
	PipelineLatency sim.Time

	queues []rxQueue
	// rxqHop holds one fixed trace-hop name per RX queue so the traced
	// path allocates no strings per frame.
	rxqHop     []string
	filters    map[proto.Flow]int
	rssPolicy  RSSPolicy
	driver     *Driver
	intrArmed  bool
	queueDepth int

	// Per-queue IRQ mode (Linux-baseline softirq model; see irq.go).
	irqTargets []*sim.Proc
	irqArmed   []bool
	// irqMsgs holds one pre-boxed QueueIRQ per queue so a delivery never
	// allocates.
	irqMsgs []sim.Message

	stats NICStats
}

type rxQueue struct {
	frames []*proto.Frame
	// spare is the previously drained slice, recycled at the next drain so
	// steady-state enqueueing never reallocates.
	spare []*proto.Frame
	// at/spareAt are hardware-enqueue stamps parallel to frames/spare,
	// populated only while a tracer is installed and recycled the same way.
	at      []sim.Time
	spareAt []sim.Time
}

// NewNIC creates a NIC with n RX/TX queue pairs attached to the given side
// of a link — a point-to-point link or a switch access link; the NIC does
// not care which. Until a policy is installed, RSS hashes over all queues.
func NewNIC(s *sim.Simulator, name string, mac proto.MAC, l *wire.Link, side int, nQueues int) *NIC {
	port := l.End(side)
	n := &NIC{
		sim:             s,
		port:            port,
		Name:            name,
		MAC:             mac,
		PipelineLatency: 500 * sim.Nanosecond,
		queues:          make([]rxQueue, nQueues),
		filters:         make(map[proto.Flow]int),
		queueDepth:      defaultQueueDepth,
		intrArmed:       true,
	}
	for q := 0; q < nQueues; q++ {
		n.rxqHop = append(n.rxqHop, fmt.Sprintf("%s.rxq%d", name, q))
	}
	port.Attach(n)
	return n
}

// bindDomain moves the NIC into the scheduling domain of the machine that
// hosts it: all its timers and deliveries land on ds, and the link endpoint
// is bound so cross-domain links switch to mailbox delivery. In the default
// sequential mode ds is the constructing simulator and nothing changes.
func (n *NIC) bindDomain(ds *sim.Simulator) {
	n.sim = ds
	n.port.Bind(ds)
}

// NumQueues returns the number of RX/TX queue pairs.
func (n *NIC) NumQueues() int { return len(n.queues) }

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() NICStats { return n.stats }

// InstallFilter steers all packets of flow (as seen inbound) to queue q.
// Mirrors the i82599 flow-director perfect filters (§4).
func (n *NIC) InstallFilter(flow proto.Flow, q int) error {
	if q < 0 || q >= len(n.queues) {
		return fmt.Errorf("nicdev: queue %d out of range", q)
	}
	n.filters[flow] = q
	return nil
}

// RemoveFilter deletes the exact-match filter for flow.
func (n *NIC) RemoveFilter(flow proto.Flow) { delete(n.filters, flow) }

// NumFilters returns the number of installed exact-match filters.
func (n *NIC) NumFilters() int { return len(n.filters) }

// SetRSSPolicy delegates unpinned-flow steering to a placement policy
// (the flow-placement plane). Exact-match filters still take precedence
// over the policy. A policy that answers -1 is the explicit drop-all
// state: NEaT's manager has no replica that can accept a new connection
// (all quarantined or terminating, §3.4), so unmatched flows are dropped in
// hardware (RxDropNoRSS) while filters keep steering existing ones. nil
// restores hashing over all queues.
func (n *NIC) SetRSSPolicy(p RSSPolicy) { n.rssPolicy = p }

// Receive implements wire.Port: hardware classification and enqueue. The
// NIC takes ownership of raw; it travels inside the decoded frame until
// the terminal consumer releases it.
func (n *NIC) Receive(raw []byte) {
	f, err := proto.DecodeFrame(raw)
	if err != nil {
		n.stats.RxDropBad++
		bufpool.Put(raw)
		return
	}
	n.stats.RxFrames++
	q := n.classify(f)
	if q < 0 {
		n.stats.RxDropNoRSS++
		f.Release()
		return
	}
	if len(n.queues[q].frames) >= n.queueDepth {
		n.stats.RxDropFull++
		f.Release()
		return
	}
	n.queues[q].frames = append(n.queues[q].frames, f)
	if n.sim.Tracer() != nil {
		n.queues[q].at = append(n.queues[q].at, n.sim.Now())
	}
	if n.notifyQueue(q) {
		return
	}
	if n.driver != nil && n.intrArmed {
		n.intrArmed = false
		n.sim.DeliverAt(n.sim.Now()+n.PipelineLatency, n.driver.proc, rxReady{})
	}
}

// classify picks the RX queue for a decoded frame: exact filter first, then
// the RSS policy, or a hash over all queues when none is installed;
// non-flow traffic (ARP) goes to queue 0. Returns -1 when the flow is
// unmatched and the policy drops it.
func (n *NIC) classify(f *proto.Frame) int {
	flow, ok := f.Flow()
	if !ok {
		return 0
	}
	if q, hit := n.filters[flow]; hit {
		n.stats.RxFiltered++
		return q
	}
	var q int
	if n.rssPolicy == nil {
		q = int(flow.Hash()) % len(n.queues)
	} else if q = n.rssPolicy.QueueFor(flow.Hash()); q < 0 {
		return -1
	}
	n.stats.RxHashed++
	return q
}

// Transmit puts a serialized frame on the wire.
func (n *NIC) Transmit(raw []byte) {
	n.stats.TxFrames++
	n.port.Transmit(raw)
}

// SendTSO performs TCP segmentation offload in "hardware": the payload is
// cut into MSS-sized segments, each with cloned headers, adjusted sequence
// numbers and recomputed checksums. Only the last segment carries PSH/FIN.
// The NIC is the last reader of t.Payload, a buffer the sender gave up with
// the descriptor, and returns it to the pools.
func (n *NIC) SendTSO(t TxTSO) {
	n.stats.TSORequests++
	proto.SegmentTSO(t.TCP, t.Payload, t.MSS, func(tcp proto.TCPHeader, seg []byte) {
		raw := proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&tcp, len(seg)))[:0], t.Eth, t.IP, tcp, seg)
		n.stats.TSOSegments++
		n.Transmit(raw)
	})
	bufpool.Put(t.Payload)
}

// drainRxStamps rotates queue q's hardware-enqueue stamp buffers after a
// drain of `drained` frames and, when a tracer is installed, emits one
// RX-queue span per drained frame (queueing = residency in the hardware
// queue; the driver's per-frame cycles are charged to the driver hop).
// A stamp count that does not match the drain (tracer installed or
// removed mid-run) skips emission and resynchronizes the buffers.
func (n *NIC) drainRxStamps(q int, drained int) {
	qu := &n.queues[q]
	at := qu.at
	qu.at = qu.spareAt[:0]
	qu.spareAt = at[:0]
	tr := n.sim.Tracer()
	if tr == nil || len(at) != drained {
		return
	}
	now := n.sim.Now()
	for _, t0 := range at {
		tr.OnSpan(n.rxqHop[q], now-t0, 0)
	}
}

// pendingQueues reports which queues currently hold frames.
func (n *NIC) pendingQueues() bool {
	for i := range n.queues {
		if len(n.queues[i].frames) > 0 {
			return true
		}
	}
	return false
}

// rearm re-enables the RX notification after the driver drained the queues,
// re-firing immediately if frames arrived during the drain (NAPI style).
func (n *NIC) rearm() {
	n.intrArmed = true
	if n.driver != nil && n.pendingQueues() {
		n.intrArmed = false
		n.driver.proc.Deliver(rxReady{})
	}
}
