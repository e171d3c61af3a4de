package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A reference scheduler that shares no code with the wheel: a plain binary
// min-heap over (at, seq), with timers cancelled lazily by remembering the
// sequence number of each timer's live entry. It is the oracle the
// differential test below holds the simulator to.

type refEntry struct {
	at    Time
	seq   uint64
	id    int // what the run records when the entry pops
	timer int // index+1 of the timer the entry fires, 0 for an event
}

type refHeap []refEntry

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(e refEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() refEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.siftDown(0)
	return top
}

func (h refHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

type refSched struct {
	now   Time
	seq   uint64
	heap  refHeap
	armed []uint64 // per timer: seq of its live entry, 0 when not armed
}

func (r *refSched) schedule(at Time, id, timer int) uint64 {
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.heap.push(refEntry{at: at, seq: r.seq, id: id, timer: timer})
	return r.seq
}

func (r *refSched) live(e refEntry) bool {
	return e.timer == 0 || r.armed[e.timer-1] == e.seq
}

// next pops the earliest live entry due at or before limit.
func (r *refSched) next(limit Time) (refEntry, bool) {
	for len(r.heap) > 0 {
		if !r.live(r.heap[0]) {
			r.heap.pop()
			continue
		}
		if r.heap[0].at > limit {
			return refEntry{}, false
		}
		e := r.heap.pop()
		if e.timer != 0 {
			r.armed[e.timer-1] = 0
		}
		r.now = e.at
		return e, true
	}
	return refEntry{}, false
}

// pending counts the live events and armed timers.
func (r *refSched) pending() (events, timers int) {
	for _, e := range r.heap {
		if e.timer == 0 {
			events++
		}
	}
	for _, seq := range r.armed {
		if seq != 0 {
			timers++
		}
	}
	return events, timers
}

// diffRun drives a simulator and the reference with the same operations.
// Every operation takes one sequence number on each side: events through
// At, AtEvent and DeliverAt, timers through the flush's own arm path (what
// Context.Retimer becomes once its dispatch ends). Deliveries and firings
// go to a hung process, which queues them without scheduling a dispatch,
// so nothing outside the script takes a sequence number and every step
// pops exactly one recorded entry.
type diffRun struct {
	t      *testing.T
	s      *Simulator
	ref    refSched
	p      *Proc
	timers []Timer
	rng    *rand.Rand
	ids    int
	last   string // what the latest step ran, as "id@time"
}

const diffTimers = 16

func newDiffRun(t *testing.T, seed int64) *diffRun {
	s := New(seed)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	d := &diffRun{t: t, s: s, rng: rand.New(rand.NewSource(seed)), timers: make([]Timer, diffTimers)}
	d.ref.armed = make([]uint64, diffTimers)
	d.p = NewProc(m.Thread(0, 0), "sink", HandlerFunc(func(*Context, Message) {}), ProcConfig{})
	d.p.Hang()
	return d
}

func (d *diffRun) OnEvent(tag uint64) { d.record(int(tag)) }

func (d *diffRun) record(id int) { d.last = fmt.Sprintf("%d@%d", id, d.s.Now()) }

// delay draws a horizon from L0 ties up to the last level.
func (d *diffRun) delay() Time {
	switch d.rng.Intn(8) {
	case 0:
		return 0 // ties with whatever else runs now
	case 1:
		// An instant on a coarse grid, shared by work scheduled from
		// different times: some of it waits in L1 and is scattered into
		// an L0 slot that already holds the rest.
		const grid = 3 * Millisecond
		now := d.s.Now()
		return (now/grid+1+Time(d.rng.Intn(4)))*grid - now
	case 2, 3:
		return Time(d.rng.Int63n(int64(4 * Millisecond))) // L0
	case 4, 5:
		return Time(d.rng.Int63n(int64(100 * Millisecond))) // L1
	case 6:
		return Time(d.rng.Int63n(int64(3 * 3600 * Second))) // L2, L3
	default:
		return Time(d.rng.Int63n(int64(200 * 24 * 3600 * Second))) // L4
	}
}

// op applies one random operation to both schedulers.
func (d *diffRun) op() {
	d.ids++
	id := d.ids
	at := d.s.Now() + d.delay()
	switch d.rng.Intn(7) {
	case 0:
		d.s.At(at, func() { d.record(id) })
	case 1:
		d.s.AtEvent(at, d, uint64(id))
	case 2:
		d.s.DeliverAt(at, d.p, id)
	case 3:
		at = d.s.Now() - Time(d.rng.Intn(1000)) // in the past: clamped
		d.s.AtEvent(at, d, uint64(id))
	case 4, 5:
		k := d.rng.Intn(diffTimers)
		tm := &d.timers[k]
		tm.Stop()
		tm.p = d.p
		d.s.armTimer(at, tm, id)
		d.ref.armed[k] = d.ref.schedule(at, id, k+1)
		return
	default:
		k := d.rng.Intn(diffTimers)
		d.timers[k].Stop()
		d.ref.armed[k] = 0
		return
	}
	d.ref.schedule(at, id, 0)
}

// step runs one simulator step within limit and checks it against the
// reference; false when neither has anything due.
func (d *diffRun) step(limit Time) bool {
	d.last = ""
	ran := d.s.stepNext(limit, true)
	for _, msg := range d.p.inbox {
		if tf, ok := msg.(*timerFire); ok {
			msg = tf.msg
		}
		d.record(msg.(int))
	}
	d.p.inbox = d.p.inbox[:0]
	e, ok := d.ref.next(limit)
	want := ""
	if ok {
		want = fmt.Sprintf("%d@%d", e.id, e.at)
	}
	if ran != ok || d.last != want {
		d.t.Fatalf("simulator ran %q (%v), the reference %q (%v)", d.last, ran, want, ok)
	}
	return ran
}

// check compares the occupancy counters with the reference and the wheel
// position with the clock.
func (d *diffRun) check() {
	events, timers := d.ref.pending()
	if got := d.s.PendingEvents(); got != events {
		d.t.Fatalf("at %v: %d events pending, the reference holds %d", d.s.Now(), got, events)
	}
	if got := d.s.TimerStats().Pending; got != timers {
		d.t.Fatalf("at %v: %d timers pending, the reference holds %d", d.s.Now(), got, timers)
	}
	if cur, clock := d.s.tw.cur, int64(d.s.Now())>>bucketShift; cur > clock {
		d.t.Fatalf("at %v: wheel position %d is ahead of the clock's bucket %d", d.s.Now(), cur, clock)
	}
}

// TestSchedulerMatchesReferenceHeap is the differential property test: a
// seeded random mix of At, AtEvent, DeliverAt, timer arms and Stops, issued
// between steps and between bounded RunUntil chunks — half of which stop
// just before, or just inside, a higher-level range that has not opened —
// must run events and timers in exactly the reference heap's order.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := newDiffRun(t, seed)
		for i := 0; i < 64; i++ {
			d.op()
		}
		steps := 0
		for chunk := 0; chunk < 1000; chunk++ {
			limit := d.s.Now() + Time(d.rng.Int63n(int64(20*Millisecond)))
			if at, head, ok := d.s.tw.peek(); ok && head == 0 && d.rng.Intn(2) == 0 {
				// The earliest pending work waits in an unopened range.
				limit = at - 1 + Time(d.rng.Intn(2))*Time(d.rng.Intn(1<<bucketShift))
			}
			for d.step(limit) {
				steps++
				for n := d.rng.Intn(3); n > 0; n-- {
					d.op()
				}
			}
			d.s.RunUntil(limit)
			if d.s.Now() > d.ref.now {
				d.ref.now = d.s.Now()
			}
			d.check()
			for n := d.rng.Intn(4); n > 0; n-- {
				d.op()
			}
		}
		for d.step(maxTime) {
			steps++
		}
		d.check()
		if steps < 2000 {
			t.Fatalf("seed %d: only %d steps ran", seed, steps)
		}
	}
}
