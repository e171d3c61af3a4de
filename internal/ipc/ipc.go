// Package ipc models the user-space communication channels of NewtOS
// (§3.2, §4 of the paper; detailed in Hruby et al., "On Sockets and System
// Calls", TRIOS 2014). A channel is a bounded shared-memory SPSC ring
// between exactly two processes. When both endpoints run on dedicated
// cores, the receiver halts in MWAIT and the sender's memory write wakes
// it without kernel assistance — the fast path. When the endpoints share a
// core (or hardware thread), the kernel must be involved to switch
// processes, which is the slow path NEaT falls back to under low load.
//
// The package charges the sender the enqueue cost and delays delivery by
// the path-appropriate notification latency. It additionally models the
// ring itself: every connection tracks its in-flight slots (sent but not
// yet consumed by the receiver) in a bounded FIFO of delivery deadlines,
// backed by pooled segments so steady-state Send is allocation-free. A
// segment is paid per channel per replica even when idle, so it is sized
// to measured occupancy (see ringSegSlots), not to the depth bound; a deep
// ring chains more segments. The ring drives two behaviors:
//
//   - Backpressure: a send finding the ring full stalls the sender — it
//     spins (CostPolling) until the head slot frees and its message is
//     delayed accordingly, with a Stalls counter on both the connection
//     and the simulator (sim.ipc.stalls).
//   - Wake coalescing (opt-in, Tuning.CoalesceWakes): a send finding the
//     ring already armed (occupancy > 0) skips the doorbell — the sender
//     saves the doorbell cycles and the message rides the in-flight
//     predecessor's delivery window, drained by the same receiver
//     activation. Off by default, preserving the calibrated per-message
//     doorbell behavior byte for byte.
//
// Endpoints are rebindable so the recovery manager can splice a restarted
// replica into existing channels.
package ipc

import "neat/internal/sim"

// defaultRingDepth is the per-connection in-flight bound: deep enough that
// the default campaigns never stall, shallow enough to bound a runaway
// sender. A send finding the ring full stalls the sender until the head
// slot frees (counted as sim.ipc.stalls).
const defaultRingDepth = 8192

// doorbellCycles is the share of SendCycles attributed to the doorbell
// write (the MWAIT monitor touch or kernel notify). A coalesced send saves
// exactly this.
const doorbellCycles = 120

// Tuning is the ring knob a system builder sets per system; the remaining
// Costs are calibration. It is declared here, beside the ring it shapes,
// and every layer above (stack templates, testbed, experiment beds, the
// neat facade) carries this type instead of restating its field. The zero
// value is the calibrated behavior: a per-message doorbell.
type Tuning struct {
	// CoalesceWakes enables doorbell/wake coalescing: a sender touching an
	// already-armed ring skips the doorbell (saving doorbellCycles) and
	// its message shares the in-flight predecessor's delivery window; the
	// receiver drains the ring until empty before re-arming. Off by
	// default — per-message doorbells, the calibrated behavior.
	CoalesceWakes bool
}

// Costs parameterizes a channel.
type Costs struct {
	// SendCycles is charged to the sender per message (queue write +
	// doorbell).
	SendCycles int64
	// FastLatency is the notification latency when the receiver owns its
	// hardware thread (MWAIT wake: a cache-line transfer).
	FastLatency sim.Time
	// SlowLatency is the latency when sender and receiver share a hardware
	// thread and the kernel must schedule the receiver.
	SlowLatency sim.Time
	// Tuning holds wake coalescing.
	Tuning

	// ringDepth overrides defaultRingDepth when positive; the ring tests
	// shrink it to force stalls.
	ringDepth int
}

// DefaultCosts returns the calibrated channel costs: a ~200-cycle enqueue,
// ~0.3 µs MWAIT wake, ~2.5 µs kernel-assisted switch. Ring depth and
// doorbell share are the package constants; coalescing is off.
func DefaultCosts() Costs {
	return Costs{
		SendCycles:  200,
		FastLatency: 300 * sim.Nanosecond,
		SlowLatency: 2500 * sim.Nanosecond,
	}
}

func (c Costs) depth() int {
	if c.ringDepth <= 0 {
		return defaultRingDepth
	}
	return c.ringDepth
}

// ringSegSlots is the capacity of one pooled ring segment. Every ring keeps
// at least one segment for good, so the size is set by occupancy: the slots
// in flight right after a push, the pushed one included, over every send
// of a 3 s run of the repository benchmark (seed 1):
//
//	workload        median  p99  max
//	web_small            1   34   75
//	web_bulk             2    3   14
//	cluster_faults       1    7   19
//
// 16 slots make an idle ring's segment 136 bytes (the 144-byte size class)
// instead of 2,056, and hold the deepest web_bulk ring and cluster_faults'
// p99 in one segment; the rare deeper ring chains more, reused from its
// free list. EXPERIMENTS.md has the sweep over 8, 16, 32 and 256 slots.
const ringSegSlots = 16

// ringSeg is one fixed-size block of ring slots. Segments are chained
// FIFO; drained segments return to the owning ring's free list, never to
// the garbage collector, so steady-state push/pop allocates nothing.
//
// Ownership contract: a segment belongs to exactly one ring at a time —
// either chained between head and tail holding live deadlines, or parked
// on that ring's free list. Rings never share segments (connections may
// live in different PDES domains), and slots outside [headIdx, tailIdx)
// are dead by index bookkeeping alone, never cleared.
type ringSeg struct {
	next *ringSeg
	at   [ringSegSlots]sim.Time
}

// ring is a bounded FIFO of in-flight delivery deadlines: one slot per
// sent-but-not-yet-consumed message, retired from the head as simulated
// time passes the deadline — the model analogue of the receiver freeing
// SPSC slots in consumption order.
type ring struct {
	head, tail       *ringSeg
	headIdx, tailIdx int
	n                int
	free             *ringSeg
}

func (r *ring) getSeg() *ringSeg {
	if s := r.free; s != nil {
		r.free = s.next
		s.next = nil
		return s
	}
	return new(ringSeg)
}

func (r *ring) push(at sim.Time) {
	switch {
	case r.tail == nil:
		seg := r.getSeg()
		r.head, r.tail = seg, seg
		r.headIdx, r.tailIdx = 0, 0
	case r.tailIdx == ringSegSlots:
		seg := r.getSeg()
		r.tail.next = seg
		r.tail = seg
		r.tailIdx = 0
	}
	r.tail.at[r.tailIdx] = at
	r.tailIdx++
	r.n++
}

func (r *ring) pop() sim.Time {
	at := r.head.at[r.headIdx]
	r.headIdx++
	r.n--
	if r.headIdx == ringSegSlots || r.n == 0 {
		seg := r.head
		r.head = seg.next
		r.headIdx = 0
		seg.next = r.free
		r.free = seg
		if r.head == nil {
			r.tail = nil
			r.tailIdx = 0
		}
	}
	return at
}

// retire pops every slot whose delivery deadline is at or before now: the
// receiver has consumed them, freeing ring space in FIFO order.
func (r *ring) retire(now sim.Time) {
	for r.n > 0 && r.head.at[r.headIdx] <= now {
		r.pop()
	}
}

// reset drops all in-flight slots (endpoint replaced: nothing already sent
// will be consumed by the new incarnation's ring).
func (r *ring) reset() {
	for r.n > 0 {
		r.pop()
	}
}

// Conn is one direction of a channel: a handle through which the owning
// process sends messages to a peer process.
type Conn struct {
	peer  *sim.Proc
	costs Costs
	stats Stats
	ring  ring
	// lastDelay is the notification delay of the newest in-flight send.
	// Later sends never use a smaller delay while the ring is occupied,
	// which keeps per-connection delivery FIFO even when a coalesced send
	// skips the doorbell.
	lastDelay sim.Time
}

// Stats counts channel activity.
type Stats struct {
	Sent     uint64
	SlowPath uint64
	// WakesSaved counts sends that rode an armed ring instead of paying
	// their own doorbell (CoalesceWakes only).
	WakesSaved uint64
	// Stalls counts sends that found the ring full and waited for the
	// head slot to free.
	Stalls uint64
	// DepthHW is the in-flight occupancy high-water mark.
	DepthHW int
}

// New creates a connection towards peer.
func New(peer *sim.Proc, costs Costs) *Conn {
	return &Conn{peer: peer, costs: costs}
}

// Rebind points the connection at a new peer process and discards the
// in-flight ring state: messages queued towards the old incarnation are
// gone with it. The recovery manager uses this to splice a freshly spawned
// replica into the channels of the crashed one.
func (c *Conn) Rebind(peer *sim.Proc) {
	c.peer = peer
	c.ring.reset()
	c.lastDelay = 0
}

// Inject delivers msg to the peer immediately, outside any simulated
// process context. The management plane uses it where it previously wrote
// into processes directly (Proc.Deliver): the message still flows through
// — and is accounted on — a channel, but no cycles are charged and no
// notification latency applies, matching the zero-cost semantics of the
// direct write it replaces. An injected message bypasses the ring: it
// lands in the peer's inbox now, ahead of every in-flight ring message
// (those are still in transit and deliver at their deadlines).
func (c *Conn) Inject(msg sim.Message) {
	if c.peer == nil {
		return
	}
	c.stats.Sent++
	c.peer.Deliver(msg)
}

// Send transmits msg from the running process (ctx) to the peer. The
// sender is charged the enqueue cost; delivery is delayed by the fast or
// slow notification latency depending on whether the peer shares the
// sender's hardware thread. The in-flight ring modulates both: a full ring
// stalls the sender until its head slot frees, and (with CoalesceWakes) an
// armed ring lets the message skip the doorbell and ride its predecessor's
// delivery window.
func (c *Conn) Send(ctx *sim.Context, msg sim.Message) {
	if c.peer == nil {
		return
	}
	now := ctx.Sim.Now()
	c.ring.retire(now)
	c.stats.Sent++
	lat := c.costs.FastLatency
	slow := c.peer.Thread() == ctx.Proc.Thread()
	if slow {
		// Colocated processes cannot use MWAIT wake: the kernel must
		// context-switch (§4).
		lat = c.costs.SlowLatency
		c.stats.SlowPath++
	}
	ctx.Sim.NoteIPCSend(slow)
	cycles := c.costs.SendCycles
	delay := lat
	switch {
	case c.ring.n >= c.costs.depth():
		// Full ring: deterministic sender-side backpressure. The sender
		// spins until the receiver consumes the head slot, then enqueues;
		// the message cannot deliver before that slot freed.
		c.stats.Stalls++
		ctx.Sim.NoteIPCStall()
		ctx.ChargeAs(sim.CostPolling, c.costs.SendCycles)
		head := c.ring.pop()
		delay = head - now + lat
		if delay < c.lastDelay {
			delay = c.lastDelay // never overtake in-flight predecessors
		}
	case c.costs.CoalesceWakes && c.ring.n > 0:
		// Armed ring: the predecessor's doorbell is still pending, so
		// this send skips its own and the message is drained by the same
		// receiver activation — no earlier, no later.
		c.stats.WakesSaved++
		ctx.Sim.NoteIPCWakeSaved()
		if cycles -= doorbellCycles; cycles < 0 {
			cycles = 0
		}
		delay = c.lastDelay
	}
	ctx.Charge(cycles)
	c.ring.push(now + delay)
	c.lastDelay = delay
	if c.ring.n > c.stats.DepthHW {
		c.stats.DepthHW = c.ring.n
		ctx.Sim.NoteIPCDepth(c.ring.n)
	}
	ctx.SendDelayed(c.peer, msg, delay)
}
