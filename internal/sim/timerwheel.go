package sim

import (
	"math"
	"math/bits"
)

// The scheduler: one hierarchical timing wheel.
//
// Everything a simulator has pending — scheduled events (closures,
// dispatches, handler callbacks, delivery vectors) and armed timers (TCP
// retransmission, delayed ACK, TIME_WAIT expiry, keepalive guards) — is a
// node of one wheel-owned pool, linked into a slot of a hierarchy of slot
// arrays. There is no second structure to merge with: the wheel's head is
// the next thing to run.
//
// Three invariants carry the design.
//
// Occupancy equals pending work. A node is linked into exactly one slot
// until it pops; a Timer handle holds its node index, so Stop and Retimer
// unlink the entry in O(1) and hand the node back. A timer that is stopped
// never pops, never wakes its process and costs nothing after the unlink.
//
// The position follows the clock, never the next deadline. cur is the L0
// bucket of the latest pop, schedule or opened range, and a range is opened
// only once the clock is bound to reach it, so a schedule (always at or after
// the clock) lands in the slot of its own time. peek does not move the
// position: it returns the exact minimum while that lies before every
// unopened higher-level range, and otherwise a lower bound — the start of the
// earliest such range — which stepNext opens before it looks again.
//
// Determinism. Every schedule and every timer arm takes the next simulator
// sequence number and the wheel orders its nodes lexicographically by
// (at, seq), so events and timers pop in one total order. A popped timer is
// delivered through Proc.Deliver like any scheduled message, so drop
// injection, dead-process drops and trace stamps apply to it.
//
// Geometry. Level 0 has twSlots buckets of 4096 ns and spans ~4.2 ms; each
// higher level covers twSlots slots of the one below (L1 ~4.3 s — every RTO
// and TIME_WAIT in practice — L2 ~73 min, L3 ~52 days, L4 the rest of Time).
// A deadline beyond the last level's window waits in that window's last slot
// and is placed again, by its true deadline, when the slot opens. L0 slot
// lists are kept sorted by (at, seq), which a schedule satisfies by linking
// at the tail in the common case; higher levels are plain FIFO lists,
// scattered one level down when their range opens.
const (
	bucketShift = 12 // 4096 ns per L0 bucket
	twLevels    = 5
	twSlotBits  = 10
	twSlots     = 1 << twSlotBits
	twSlotMask  = twSlots - 1

	twChunkBits = 8 // nodes per pool chunk
	twChunkMask = 1<<twChunkBits - 1
)

// evKind says what a node runs when it pops.
type evKind uint8

const (
	evFunc         evKind = iota // msg.(func())()
	evDispatch                   // msg.(*Proc).runDispatch()
	evHandler                    // msg.(EventHandler).OnEvent(tag)
	evDeliverBatch               // deliver every message of msg.(*msgBatch)
	evTimer                      // deliver msg to t's process as a timer firing
)

// Timer.node values that are not pool indices.
const (
	timerIdle  = 0          // never armed, stopped, or popped and awaiting dispatch
	timerFired = ^uint32(0) // the firing was delivered to the handler
)

// twNode is one piece of pending work. next/prev link it into its slot's
// circular list (the head's prev is the tail); a free node chains through
// next. The payload is written in place when the node is scheduled.
type twNode struct {
	at         Time
	seq        uint64
	next, prev uint32
	level      uint8
	kind       evKind
	slot       uint16
	// msg is the timer's message, or what the kind runs: the func, the
	// *Proc, the EventHandler or the *msgBatch.
	msg Message
	t   *Timer // evTimer: the handle that owns the node
	tag uint64 // evHandler: the argument of OnEvent
}

func (n *twNode) before(at Time, seq uint64) bool {
	return n.at < at || (n.at == at && n.seq < seq)
}

type timerWheel struct {
	heads  [twLevels][twSlots]uint32
	occ    [twLevels][twSlots / 64]uint64
	counts [twLevels]int
	cur    int64 // monotonic L0 bucket counter; level l's window starts at cur>>(l*twSlotBits)

	// Node pool: index 0 is the nil link, chunks never move once allocated.
	chunks []*[1 << twChunkBits]twNode
	used   uint32 // indices handed out so far (the pool's high-water mark)
	free   uint32 // head of the free chain

	// upper caches the start bucket of the earliest occupied higher-level
	// range. Inserts lower it in place; it is recomputed after a range
	// opens or a higher-level slot empties.
	upper      int64
	upperValid bool

	timers   int    // resident timer nodes; every other resident node is an event
	cascaded uint64 // timer nodes scattered down a level when their range opened
	fired    uint64 // timer nodes popped for delivery
}

func (w *timerWheel) node(i uint32) *twNode {
	return &w.chunks[i>>twChunkBits][i&twChunkMask]
}

func (w *timerWheel) pending() int {
	n := 0
	for _, c := range w.counts {
		n += c
	}
	return n
}

// insert links a fresh node of kind at (at, seq) and returns it for the
// caller to fill in its payload. at is not before the clock, and the caller
// has advanced the position to the clock.
func (w *timerWheel) insert(at Time, seq uint64, kind evKind) (uint32, *twNode) {
	i := w.free
	if i != 0 {
		w.free = w.node(i).next
	} else {
		w.used++
		if int(w.used>>twChunkBits) == len(w.chunks) {
			w.chunks = append(w.chunks, new([1 << twChunkBits]twNode))
		}
		i = w.used
	}
	n := w.node(i)
	n.at, n.seq, n.kind = at, seq, kind
	w.place(i, n)
	return i, n
}

// place links a node into the innermost level whose window contains its
// deadline.
func (w *timerWheel) place(i uint32, n *twNode) {
	b := int64(n.at) >> bucketShift
	if b < w.cur {
		panic("sim: deadline behind the wheel position")
	}
	cur := w.cur
	level := 0
	for b-cur >= twSlots {
		if level == twLevels-1 {
			b = cur + twSlotMask // beyond the last window: placed again when this slot opens
			break
		}
		level++
		b >>= twSlotBits
		cur >>= twSlotBits
	}
	slot := b & twSlotMask
	n.level, n.slot = uint8(level), uint16(slot)
	head := w.heads[level][slot]
	if head == 0 {
		n.next, n.prev = i, i
		w.heads[level][slot] = i
		w.occ[level][slot>>6] |= 1 << uint(slot&63)
	} else {
		// Link after the last entry that is not later. Higher levels are
		// FIFO, so there it is the tail; in L0 it almost always is, because
		// a schedule carries the newest sequence number.
		tail := w.node(head).prev
		after := tail
		if level == 0 {
			for !w.node(after).before(n.at, n.seq) {
				if after == head {
					// Earlier than every entry: in a ring the new head
					// links where a new tail would.
					after = tail
					w.heads[0][slot] = i
					break
				}
				after = w.node(after).prev
			}
		}
		an := w.node(after)
		n.prev, n.next = after, an.next
		w.node(an.next).prev = i
		an.next = i
	}
	w.counts[level]++
	if level > 0 {
		if start := b << uint(level*twSlotBits); w.upperValid && start < w.upper {
			w.upper = start
		}
	}
}

// remove unlinks node i and returns it to the pool.
func (w *timerWheel) remove(i uint32) {
	n := w.node(i)
	level, slot := int(n.level), int64(n.slot)
	if n.next == i {
		w.heads[level][slot] = 0
		w.occ[level][slot>>6] &^= 1 << uint(slot&63)
		if level > 0 {
			w.upperValid = false
		}
	} else {
		w.node(n.prev).next = n.next
		w.node(n.next).prev = n.prev
		if w.heads[level][slot] == i {
			w.heads[level][slot] = n.next
		}
	}
	w.counts[level]--
	n.msg, n.t = nil, nil // drop references; the node is recycled
	n.next = w.free
	w.free = i
}

// firstSlot returns the first occupied slot of level at or after from,
// wrapping. Only valid when the level is non-empty.
func (w *timerWheel) firstSlot(level int, from int64) int64 {
	start := from & twSlotMask
	occ := &w.occ[level]
	wd := start >> 6
	if b := occ[wd] &^ ((1 << uint(start&63)) - 1); b != 0 {
		return wd<<6 | int64(bits.TrailingZeros64(b))
	}
	for i := int64(1); i <= int64(len(occ)); i++ {
		wi := (wd + i) & (int64(len(occ)) - 1)
		if occ[wi] != 0 {
			return wi<<6 | int64(bits.TrailingZeros64(occ[wi]))
		}
	}
	panic("sim: wheel occupancy bitmap empty with entries resident")
}

// upperStart returns the L0 bucket at which the earliest occupied
// higher-level range starts: no entry above L0 is due before it.
func (w *timerWheel) upperStart() int64 {
	if !w.upperValid {
		w.upper = math.MaxInt64
		for level := 1; level < twLevels; level++ {
			if w.counts[level] == 0 {
				continue
			}
			// A level's current slot was scattered when the position
			// entered it, so residents start one slot further on.
			shift := uint(level * twSlotBits)
			from := w.cur>>shift + 1
			start := (from + (w.firstSlot(level, from)-from)&twSlotMask) << shift
			if start < w.upper {
				w.upper = start
			}
		}
		w.upperValid = true
	}
	return w.upper
}

// peek returns the earliest node without moving the position. i is 0 when
// an unopened higher-level range starts at or before the earliest L0 entry:
// at is then the start of that range, a lower bound on every resident
// deadline. ok is false when nothing is pending.
func (w *timerWheel) peek() (at Time, i uint32, ok bool) {
	upper := w.upperStart()
	if w.counts[0] > 0 {
		slot := w.firstSlot(0, w.cur)
		if w.cur+(slot-w.cur)&twSlotMask < upper {
			i = w.heads[0][slot]
			return w.node(i).at, i, true
		}
	} else if upper == math.MaxInt64 {
		return 0, 0, false
	}
	return Time(upper << bucketShift), 0, true
}

// open moves the position to the start of the earliest unopened occupied
// range and scatters the slots that begin there one level down, outermost
// first so an outer slot's entries are in place before the inner one
// scatters. The caller guarantees no L0 entry lies before that start.
func (w *timerWheel) open() {
	w.cur = w.upperStart()
	w.upperValid = false
	for level := twLevels - 1; level > 0; level-- {
		shift := uint(level * twSlotBits)
		if w.cur&(1<<shift-1) != 0 {
			continue
		}
		slot := (w.cur >> shift) & twSlotMask
		i := w.heads[level][slot]
		if i == 0 {
			continue
		}
		w.heads[level][slot] = 0
		w.occ[level][slot>>6] &^= 1 << uint(slot&63)
		w.node(w.node(i).prev).next = 0 // break the ring at the tail
		for i != 0 {
			n := w.node(i)
			next := n.next
			w.counts[level]--
			if n.kind == evTimer {
				w.cascaded++
			}
			w.place(i, n)
			i = next
		}
	}
}

// advance moves the position up to the clock's bucket, opening every range
// that starts on the way. No resident deadline precedes the clock, so no
// L0 entry is passed over.
func (w *timerWheel) advance(now Time) {
	b := int64(now) >> bucketShift
	if b <= w.cur {
		return
	}
	for w.upperStart() <= b {
		w.open()
	}
	w.cur = b
}

// schedule links a node of kind at t (clamped to the clock) under the next
// sequence number and returns it for the caller to write its payload.
func (s *Simulator) schedule(t Time, kind evKind) (uint32, *twNode) {
	if s.pdes != nil && s.parent == nil && s.pdes.inWindow.Load() {
		// Domain code must never schedule on the control plane while
		// windows execute concurrently: its scheduler is only touched at
		// barriers. Cross-domain influence goes through the wire.
		panic("sim: control-plane schedule during a parallel window")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.tw.advance(s.now)
	return s.tw.insert(t, s.seq, kind)
}

// armTimer links one flushed timer arm under its own sequence number.
func (s *Simulator) armTimer(at Time, t *Timer, msg Message) {
	i, n := s.schedule(at, evTimer)
	n.t, n.msg = t, msg
	t.node = i
	s.tw.timers++
}

// stopTimer unlinks t's resident node.
func (w *timerWheel) stopTimer(t *Timer) {
	w.remove(t.node)
	t.node = timerIdle
	w.timers--
}

// stepNext pops and runs the earliest pending node. If bounded, work after
// limit is left in place and false is returned.
func (s *Simulator) stepNext(limit Time, bounded bool) bool {
	w := &s.tw
	for {
		at, i, ok := w.peek()
		if !ok || (bounded && at > limit) {
			return false
		}
		if i == 0 {
			// Nothing resident precedes the lower bound, so the clock is
			// about to reach it: open that range and look again.
			w.open()
			continue
		}
		n := w.node(i)
		kind, msg, tag, t := n.kind, n.msg, n.tag, n.t
		w.cur = int64(at) >> bucketShift
		w.remove(i)
		s.now = at
		s.eventsRun++
		switch kind {
		case evFunc:
			msg.(func())()
		case evDispatch:
			msg.(*Proc).runDispatch()
		case evHandler:
			msg.(EventHandler).OnEvent(tag)
		case evDeliverBatch:
			s.deliverBatch(msg.(*msgBatch))
		case evTimer:
			// The boxed firing is built only now, from the freelist, and
			// travels through Proc.Deliver exactly like a scheduled
			// delivery: drop injection, dead-process drops, tracer arrival
			// stamps and wake scheduling all apply.
			t.node = timerIdle
			w.timers--
			w.fired++
			t.p.Deliver(s.newTimerFire(t, t.gen, msg))
		}
		return true
	}
}

// peekTime returns a lower bound on the earliest pending timestamp — exact
// unless the earliest node waits in an unopened range. The PDES coordinator
// uses this at every barrier; a bound that is early only costs it a window.
func (s *Simulator) peekTime() (Time, bool) {
	at, _, ok := s.tw.peek()
	return at, ok
}

// idleLocal reports whether this simulator has no pending work of its own.
func (s *Simulator) idleLocal() bool { return s.tw.pending() == 0 }

// TimerStats reports timer counters: live armed timers, timer entries
// scattered down a level when their range opened, and timer entries popped
// for delivery. On a PDES control plane it totals across all domains; call
// it only at a barrier.
type TimerStats struct {
	Pending  int
	Cascades uint64
	Fired    uint64
}

// TimerStats returns the simulator's timer counters.
func (s *Simulator) TimerStats() TimerStats {
	st := TimerStats{Pending: s.tw.timers, Cascades: s.tw.cascaded, Fired: s.tw.fired}
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			st.Pending += d.tw.timers
			st.Cascades += d.tw.cascaded
			st.Fired += d.tw.fired
		}
	}
	return st
}

// PendingEvents returns the number of scheduled events resident in the
// wheel(s), excluding armed timers, so it stays independent of the number
// of armed timers — the conn-scale experiments assert exactly that. On a
// PDES control plane it totals across all domains; call it only at a
// barrier.
func (s *Simulator) PendingEvents() int {
	n := s.tw.pending() - s.tw.timers
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			n += d.tw.pending() - d.tw.timers
		}
	}
	return n
}
