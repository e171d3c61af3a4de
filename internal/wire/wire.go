// Package wire models the physical link of the paper's testbed: a 10GbE
// Direct Attach Copper cable between the system under test and the load
// generator. The link is full duplex with explicit serialization time
// (frame bits at line rate) and propagation delay, which is what makes the
// bandwidth saturation behaviour of the paper's Figures 4 and 5 emerge.
//
// The link also exposes fault hooks (loss, duplication, programmable drop
// filters) used by the TCP retransmission tests and the reliability
// experiments.
//
// In PDES mode the wire is the only channel between machine domains, and
// its physics provide the lookahead that makes conservative parallel
// execution correct: no frame can arrive earlier than the minimum
// serialization time plus the propagation delay after its send
// (lookahead()). Cross-domain deliveries go through per-direction
// mailboxes flushed into the receiving domain's queue at each coordinator
// barrier.
package wire

import (
	"neat/internal/bufpool"
	"neat/internal/sim"
)

// Port receives frames from a link endpoint. NICs implement Port.
type Port interface {
	// Receive is called when a frame fully arrives at this endpoint.
	// Ownership of the frame buffer transfers to the port (see
	// Link.Transmit).
	Receive(frame []byte)
}

// overheadBytes is the per-frame overhead on the physical medium:
// preamble (8) + FCS (4) + inter-frame gap (12).
const overheadBytes = 24

// minFrameBytes is the minimum Ethernet frame size on the wire.
const minFrameBytes = 64

// Link is a full-duplex point-to-point link. Endpoint 0 and endpoint 1 are
// attached with Attach; each direction has independent serialization state.
type Link struct {
	sim *sim.Simulator

	// dom holds each endpoint's scheduling domain. Both default to the
	// constructing simulator; bindEndpoint rebinds a side to its machine's
	// domain, and when the two sides land in different domains the link
	// switches to mailbox delivery (cross == true).
	dom   [2]*sim.Simulator
	bound [2]bool
	cross bool

	// BitsPerSec is the line rate of each direction (default 10 Gb/s).
	BitsPerSec int64
	// PropDelay is the one-way propagation delay.
	PropDelay sim.Time

	ports [2]Port
	// lineFree is the earliest time each direction's transmitter is free.
	lineFree [2]sim.Time

	// LossProb drops each frame independently with this probability.
	LossProb float64
	// DupProb duplicates each delivered frame with this probability.
	DupProb float64
	// DropFilter, if set, is consulted per frame; returning true drops it.
	// Used by tests to lose specific segments deterministically. The filter
	// may inspect the frame but must not retain it.
	DropFilter func(dir int, frame []byte) bool

	// pend holds frames in flight; slots are recycled through free so a
	// delivery schedules without allocating (Link implements
	// sim.EventHandler with receiver<<32|slot as tag). Pools are indexed by
	// the receiving side: in PDES mode each pool is owned by its receiver's
	// domain (and touched by barrier flushes), never by the sender.
	pend [2][]pendDelivery
	free [2][]uint32

	// mbox, indexed by receiving side, parks cross-domain frames between
	// their send and the next barrier. Each direction has exactly one
	// writing domain (the sender) and is drained only at barriers, so no
	// lock is needed: the coordinator's worker hand-off provides the
	// happens-before edges.
	mbox [2][]mboxEntry

	stats LinkStats
}

type pendDelivery struct {
	frame []byte
	side  int8
}

// mboxEntry is one cross-domain frame in flight: its arrival time and
// payload. Entries are flushed in arrival-time order (stable within equal
// times, preserving the sender's FIFO order).
type mboxEntry struct {
	at    sim.Time
	frame []byte
}

// wireHopName gives each direction a fixed trace-hop name, so the traced
// path allocates no strings per frame.
var wireHopName = [2]string{"wire.dir0", "wire.dir1"}

// LinkStats counts link activity.
type LinkStats struct {
	Frames    [2]uint64 // frames accepted for transmission per direction
	Bytes     [2]uint64 // payload bytes per direction
	Dropped   [2]uint64
	Delivered [2]uint64
}

// NewLink creates a 10 Gb/s link with a 1 µs propagation delay.
func NewLink(s *sim.Simulator) *Link {
	return &Link{sim: s, dom: [2]*sim.Simulator{s, s},
		BitsPerSec: 10_000_000_000, PropDelay: sim.Microsecond}
}

// Endpoint is a named attachment point: one side of a link, handed to the
// device that faces it (a NIC, a switch port). It generalizes the
// historical (link, side) pair so topology code can wire a machine to a
// point-to-point peer or to a switch port through the same handle, without
// the caller tracking which integer side it was given.
type Endpoint struct {
	link *Link
	side int
}

// End returns the endpoint handle for side (0 or 1) of the link.
func (l *Link) End(side int) Endpoint { return Endpoint{link: l, side: side} }

// Attach connects p as the receiver of frames arriving at this endpoint.
func (e Endpoint) Attach(p Port) { e.link.Attach(e.side, p) }

// Transmit sends a frame from this endpoint towards the opposite one.
func (e Endpoint) Transmit(frame []byte) { e.link.Transmit(e.side, frame) }

// Bind rebinds the endpoint to the scheduling domain ds (see
// Link.bindEndpoint).
func (e Endpoint) Bind(ds *sim.Simulator) { e.link.bindEndpoint(e.side, ds) }

// Attach connects p as endpoint side (0 or 1).
func (l *Link) Attach(side int, p Port) { l.ports[side] = p }

// bindEndpoint rebinds endpoint side to the scheduling domain ds (its
// machine's simulator). The NIC driver calls this when it learns which
// machine hosts the device. In the default sequential mode every domain is
// the constructing simulator and this is a no-op; in PDES mode, once both
// endpoints are bound to different domains, the link registers its
// lookahead with the coordinator and switches to barrier-flushed mailbox
// delivery.
func (l *Link) bindEndpoint(side int, ds *sim.Simulator) {
	l.dom[side] = ds
	l.bound[side] = true
	if l.bound[0] && l.bound[1] && l.dom[0] != l.dom[1] && !l.cross {
		l.cross = true
		l.sim.RegisterLookahead(l.lookahead())
		l.sim.RegisterBarrierFlush(l.flushMailboxes)
	}
}

// lookahead returns the hard lower bound on the delay between a Transmit on
// either side and the resulting delivery: the serialization time of a
// minimum-size frame plus the propagation delay. Every arrival the link
// ever schedules — including duplicates injected by the fault hook, which
// land one extra serialization later — is at least this far in the
// transmitter's future, which is what makes it a safe PDES horizon.
func (l *Link) lookahead() sim.Time {
	minWire := int64(minFrameBytes + overheadBytes)
	serial := sim.Time(minWire * 8 * int64(sim.Second) / l.BitsPerSec)
	la := serial + l.PropDelay
	if la < sim.Nanosecond {
		la = sim.Nanosecond
	}
	return la
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Transmit sends a frame from endpoint side to the opposite endpoint.
// The frame occupies the transmitter for its serialization time; delivery
// happens after serialization plus propagation. Frames are delivered in
// FIFO order per direction.
//
// Ownership contract: the sender relinquishes the frame buffer on Transmit
// and must not touch it afterwards. The link hands it to the receiving
// Port unchanged (no defensive copy — a copy is made only when the
// duplication fault hook needs a second instance), and recycles it via
// bufpool when a fault hook drops the frame instead.
func (l *Link) Transmit(side int, frame []byte) {
	dst := l.ports[1-side]
	if dst == nil {
		bufpool.Put(frame)
		return
	}
	l.stats.Frames[side]++
	l.stats.Bytes[side] += uint64(len(frame))

	onWire := len(frame)
	if onWire < minFrameBytes {
		onWire = minFrameBytes
	}
	onWire += overheadBytes

	ds := l.dom[side]
	now := ds.Now()
	start := now
	if l.lineFree[side] > start {
		start = l.lineFree[side]
	}
	serial := sim.Time(int64(onWire) * 8 * int64(sim.Second) / l.BitsPerSec)
	l.lineFree[side] = start + serial
	if tr := ds.Tracer(); tr != nil {
		// Wire hop: queueing is the wait for the transmitter to free up,
		// processing is the serialization time at line rate.
		tr.OnSpan(wireHopName[side], start-now, serial)
	}

	if l.DropFilter != nil && l.DropFilter(side, frame) {
		l.stats.Dropped[side]++
		bufpool.Put(frame)
		return // still consumed line time (collision-free model keeps it simple: drop after serialization accounting)
	}
	if l.LossProb > 0 && ds.Rand().Float64() < l.LossProb {
		l.stats.Dropped[side]++
		bufpool.Put(frame)
		return
	}

	arrive := l.lineFree[side] + l.PropDelay
	l.sendOrPark(arrive, side, frame)
	if l.DupProb > 0 && ds.Rand().Float64() < l.DupProb {
		dup := bufpool.Get(len(frame))
		copy(dup, frame)
		l.sendOrPark(arrive+serial, side, dup)
	}
}

// sendOrPark routes one delivery: directly onto the receiver's queue in the
// sequential (same-domain) case, or into the cross-domain mailbox to be
// flushed at the next barrier.
func (l *Link) sendOrPark(at sim.Time, side int, frame []byte) {
	if l.cross {
		r := 1 - side
		l.mbox[r] = append(l.mbox[r], mboxEntry{at: at, frame: frame})
		return
	}
	l.scheduleDeliver(at, side, frame)
}

// flushMailboxes moves parked cross-domain frames into the receiving
// domains' queues. It runs at coordinator barriers with all domains
// quiescent. Entries are insertion-sorted by arrival time (they arrive
// nearly sorted: only duplicate injections land out of order), which keeps
// the merge stable and allocation-free.
func (l *Link) flushMailboxes() {
	for r := 0; r < 2; r++ {
		es := l.mbox[r]
		if len(es) == 0 {
			continue
		}
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].at < es[j-1].at; j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		for i := range es {
			l.scheduleDeliver(es[i].at, 1-r, es[i].frame)
			es[i].frame = nil
		}
		l.mbox[r] = es[:0]
	}
}

// scheduleDeliver parks the frame in a recycled pending slot of the
// receiving side's pool and schedules the closure-free delivery event on
// the receiver's domain.
func (l *Link) scheduleDeliver(at sim.Time, side int, frame []byte) {
	r := 1 - side
	var slot uint32
	if n := len(l.free[r]); n > 0 {
		slot = l.free[r][n-1]
		l.free[r] = l.free[r][:n-1]
	} else {
		slot = uint32(len(l.pend[r]))
		l.pend[r] = append(l.pend[r], pendDelivery{})
	}
	l.pend[r][slot] = pendDelivery{frame: frame, side: int8(side)}
	l.dom[r].AtEvent(at, l, uint64(r)<<32|uint64(slot))
}

// OnEvent completes the pending delivery in slot tag (sim.EventHandler).
func (l *Link) OnEvent(tag uint64) {
	r := tag >> 32
	p := &l.pend[r][uint32(tag)]
	frame, side := p.frame, int(p.side)
	p.frame = nil
	l.free[r] = append(l.free[r], uint32(tag))
	l.stats.Delivered[side]++
	l.ports[r].Receive(frame)
}

// Utilization returns the fraction of capacity used by direction side over
// the window ending now, given a byte count captured at window start.
func (l *Link) Utilization(side int, bytesAtStart uint64, since sim.Time) float64 {
	now := l.sim.Now()
	if now <= since {
		return 0
	}
	bits := float64(l.stats.Bytes[side]-bytesAtStart) * 8
	cap := float64(l.BitsPerSec) * (now - since).Seconds()
	return bits / cap
}
