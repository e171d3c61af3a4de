package sim

import (
	"math"
	"math/bits"
)

// Hierarchical timer wheel.
//
// Armed timers (TCP retransmission, delayed ACK, TIME_WAIT expiry, keepalive
// guards) live outside the event queue, in a hierarchy of slot arrays beside
// it. The simulator's pop merges the two sources by (time, sequence), so the
// event queue's pending count stays independent of the number of armed
// timers, and almost every timer is stopped or re-armed without ever
// becoming an event.
//
// Two invariants carry the design.
//
// Occupancy equals live armed timers. An entry is a node in a wheel-owned
// pool, doubly linked into its slot; the Timer handle holds the node index,
// so Stop and Retimer unlink the entry in O(1) and hand the node back. A
// timer that is stopped never pops, never wakes its process and costs
// nothing after the unlink.
//
// The position follows the clock, never the next deadline. cur is the L0
// bucket of the latest pop, arm or opened range and never exceeds the
// clock's bucket, so an arm (always at or after the clock) lands in the slot
// of its own deadline. peek does not move the position: it returns the exact
// minimum while that lies before every unopened higher-level range, and
// otherwise a lower bound — the start of the earliest such range — which the
// merged pop opens only once nothing in the event queue is earlier.
//
// Determinism. Every arm takes the next simulator sequence number, so the
// merged pop compares the queue head and the wheel head lexicographically
// by (at, seq), and the wheel orders its own entries the same way. A popped
// entry is delivered through Proc.Deliver like any scheduled message, so
// drop injection, dead-process drops and trace stamps apply to it.
//
// Geometry. Level 0 shares the calendar queue's 4096 ns bucket and spans
// ~4.2 ms; each higher level covers twSlots slots of the one below (L1
// ~4.3 s — every RTO and TIME_WAIT in practice — L2 ~73 min, L3 ~52 days,
// L4 the rest of Time). A deadline beyond the last level's window waits in
// that window's last slot and is placed again, by its true deadline, when
// the slot opens. L0 slot lists are kept sorted by (at, seq), which an arm
// satisfies by linking at the tail in the common case; higher levels are
// plain FIFO lists, scattered one level down when their range opens.
const (
	twLevels   = 5
	twSlotBits = wheelBits // 1024 slots per level, matching the event queue
	twSlots    = 1 << twSlotBits
	twSlotMask = twSlots - 1

	twChunkBits = 8 // nodes per pool chunk
	twChunkMask = 1<<twChunkBits - 1
)

// Timer.node values that are not pool indices.
const (
	timerIdle  = 0          // never armed, stopped, or popped and awaiting dispatch
	timerFired = ^uint32(0) // the firing was delivered to the handler
)

// twNode is one armed timer. next/prev link it into its slot's circular
// list (the head's prev is the tail); a free node chains through next.
type twNode struct {
	at         Time
	seq        uint64
	t          *Timer
	msg        Message
	next, prev uint32
	level      uint8
	slot       uint16
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
	chunks [][]twNode
	used   uint32 // indices handed out so far (the pool's high-water mark)
	free   uint32 // head of the free chain

	// upper caches the start bucket of the earliest occupied higher-level
	// range. Inserts lower it in place; it is recomputed after a range
	// opens or a higher-level slot empties.
	upper      int64
	upperValid bool

	cascaded uint64 // entries scattered down a level when their range opened
	fired    uint64 // entries popped for delivery
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

func (w *timerWheel) empty() bool { return w.pending() == 0 }

func (w *timerWheel) alloc() uint32 {
	if i := w.free; i != 0 {
		w.free = w.node(i).next
		return i
	}
	w.used++
	if int(w.used>>twChunkBits) == len(w.chunks) {
		w.chunks = append(w.chunks, make([]twNode, 1<<twChunkBits))
	}
	return w.used
}

// insert arms t to deliver msg at (at, seq). The caller has advanced the
// position to the clock, and at is not before the clock.
func (w *timerWheel) insert(at Time, seq uint64, t *Timer, msg Message) {
	i := w.alloc()
	n := w.node(i)
	n.at, n.seq, n.t, n.msg = at, seq, t, msg
	t.node = i
	w.place(i, n)
}

// place links a node into the innermost level whose window contains its
// deadline.
func (w *timerWheel) place(i uint32, n *twNode) {
	b := int64(n.at) >> bucketShift
	if b < w.cur {
		panic("sim: timer deadline behind the wheel position")
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
		// an arm carries the newest sequence number.
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

// release unlinks t's entry and returns its node to the pool.
func (w *timerWheel) release(t *Timer) {
	i := t.node
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
	t.node = timerIdle
	n.t, n.msg = nil, nil // drop references; the node is recycled
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
	panic("sim: timer wheel occupancy bitmap empty with entries resident")
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

// peek returns the key of the earliest entry without moving the position.
// exact is false when an unopened higher-level range starts at or before
// the earliest L0 entry: at is then the start of that range, a lower bound
// on every resident deadline, and seq is 0 (below every real sequence).
func (w *timerWheel) peek() (at Time, seq uint64, exact, ok bool) {
	upper := w.upperStart()
	if w.counts[0] > 0 {
		slot := w.firstSlot(0, w.cur)
		if w.cur+(slot-w.cur)&twSlotMask < upper {
			n := w.node(w.heads[0][slot])
			return n.at, n.seq, true, true
		}
	} else if upper == math.MaxInt64 {
		return 0, 0, false, false
	}
	return Time(upper << bucketShift), 0, false, true
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
			w.cascaded++
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

// pop removes the earliest entry. Only valid after an exact peek.
func (w *timerWheel) pop() (t *Timer, at Time, msg Message) {
	slot := w.firstSlot(0, w.cur)
	w.cur += (slot - w.cur) & twSlotMask
	n := w.node(w.heads[0][slot])
	t, at, msg = n.t, n.at, n.msg
	w.release(t)
	w.fired++
	return t, at, msg
}

// armTimer inserts one flushed timer arm under its own sequence number.
func (s *Simulator) armTimer(at Time, t *Timer, msg Message) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.tw.advance(s.now)
	s.tw.insert(at, s.seq, t, msg)
}

// fireTimer pops the wheel head and delivers it. The boxed firing is built
// only now, from the freelist, and travels through Proc.Deliver exactly like
// a scheduled delivery event: drop injection, dead-process drops, tracer
// arrival stamps and wake scheduling all apply.
func (s *Simulator) fireTimer() {
	t, at, msg := s.tw.pop()
	s.now = at
	s.eventsRun++
	t.p.Deliver(s.newTimerFire(t, t.gen, msg))
}

// stepNext runs the earliest of the event-queue head and the timer-wheel
// head, merged by (at, seq). If bounded, work after limit is left in place
// and false is returned.
func (s *Simulator) stepNext(limit Time, bounded bool) bool {
	for {
		wa, wseq, exact, wok := s.tw.peek()
		if !wok {
			e, ok := s.q.pop(limit, bounded)
			if !ok {
				return false
			}
			s.run(e)
			return true
		}
		slot, idx, qa, qseq, qok := s.q.peekPos()
		if qok && (qa < wa || (qa == wa && qseq < wseq)) {
			if bounded && qa > limit {
				return false
			}
			s.run(s.q.take(slot, idx))
			return true
		}
		if bounded && wa > limit {
			return false
		}
		if exact {
			s.fireTimer()
			return true
		}
		// Nothing queued precedes the wheel's lower bound, so the clock is
		// about to reach it: open that range and look again.
		s.tw.open()
	}
}

// peekTime returns a lower bound on the earliest pending timestamp across
// the event queue and the timer wheel — exact unless the wheel's earliest
// entry waits in an unopened range. The PDES coordinator uses this at every
// barrier; a bound that is early only costs it a window.
func (s *Simulator) peekTime() (Time, bool) {
	qt, qok := s.q.peekTime()
	wt, _, _, wok := s.tw.peek()
	switch {
	case qok && wok:
		if wt < qt {
			return wt, true
		}
		return qt, true
	case qok:
		return qt, true
	case wok:
		return wt, true
	}
	return 0, false
}

// idleLocal reports whether this simulator (queue and wheel) has no pending
// work of its own.
func (s *Simulator) idleLocal() bool { return s.q.empty() && s.tw.empty() }

// TimerStats reports timer-wheel counters: live armed timers, entries
// scattered down a level when their range opened, and entries popped for
// delivery. On a PDES control plane it totals across all domains; call it
// only at a barrier.
type TimerStats struct {
	Pending  int
	Cascades uint64
	Fired    uint64
}

// TimerStats returns the simulator's timer-wheel counters.
func (s *Simulator) TimerStats() TimerStats {
	st := TimerStats{Pending: s.tw.pending(), Cascades: s.tw.cascaded, Fired: s.tw.fired}
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			st.Pending += d.tw.pending()
			st.Cascades += d.tw.cascaded
			st.Fired += d.tw.fired
		}
	}
	return st
}

// PendingEvents returns the number of events resident in the calendar
// queue(s), excluding wheel-resident timers, so it stays independent of the
// number of armed timers — the conn-scale experiments assert exactly that.
// On a PDES control plane it totals across all domains; call it only at a
// barrier.
func (s *Simulator) PendingEvents() int {
	n := s.q.len()
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			n += d.q.len()
		}
	}
	return n
}
