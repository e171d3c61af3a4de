// Package sim implements the deterministic discrete-event machine model that
// the NEaT reproduction runs on. It stands in for the paper's physical
// testbed (NewtOS on a 12-core AMD Opteron and an 8-core/16-thread Xeon):
// simulated machines expose cores and hardware threads, processes pinned to
// threads consume cycles, and all cross-process communication is message
// passing with explicit cost, exactly mirroring the paper's execution model.
//
// The simulation is single-threaded and fully deterministic: events are
// ordered by (time, sequence) and all randomness flows from one seeded
// source. Running the same experiment twice yields identical results.
// An opt-in conservative parallel mode (EnablePDES; see pdes.go) splits the
// run into per-machine event-queue domains advanced in lookahead-bounded
// windows; it trades the sequential mode's global event order for
// machine-local determinism (per-domain RNG streams and sequence counters),
// so its results are reproducible across any worker count but not
// byte-identical to the sequential mode.
//
// The event queue is a calendar queue (timing wheel): near-future events
// live in fixed time buckets whose slot storage is recycled run after run,
// and far-future events (retransmission timeouts, TIME_WAIT expiry) fall
// back to a binary heap until the wheel horizon reaches them. The hottest
// schedule sites use closure-free event kinds so that steady-state
// scheduling performs no allocation at all.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"
)

// Time is a simulated timestamp or duration in nanoseconds since the start
// of the simulation.
type Time int64

// Common durations, usable as Time values.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulated Time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// EventHandler receives closure-free scheduled events. Objects on the hot
// path (links, NICs) implement it once and pass a tag identifying the
// pending work, so scheduling does not allocate.
type EventHandler interface {
	OnEvent(tag uint64)
}

type evKind uint8

const (
	evFunc         evKind = iota // run fn()
	evDispatch                   // run proc.runDispatch()
	evDeliver                    // proc.Deliver(msg)
	evHandler                    // h.OnEvent(tag)
	evDeliverBatch               // deliver every message of a msgBatch to proc
)

// event is one queue entry. The kind discriminates which payload fields are
// live; keeping them unioned in one flat struct lets bucket slots be reused
// without any per-event allocation.
type event struct {
	at   Time
	seq  uint64
	kind evKind
	fn   func()
	proc *Proc
	msg  Message
	h    EventHandler
	tag  uint64
}

// eventHeap is a binary min-heap ordered by (at, seq). It holds only
// far-future events that do not fit the wheel horizon.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
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

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release references for GC
	*h = old[:n]
	h.siftDown(0)
	return top
}

func (h eventHeap) siftDown(i int) {
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

// Calendar-queue geometry: 1024 buckets of 4096 ns each give a ~4.2 ms
// horizon, comfortably wider than the typical inter-event gap (cycle
// charges, wire latencies, IPC wakeups are all well under a millisecond)
// while keeping the wheel small enough to live inline in the Simulator.
const (
	wheelBits    = 10
	wheelBuckets = 1 << wheelBits
	wheelMask    = wheelBuckets - 1
	bucketShift  = 12 // 4096 ns per bucket
)

// eventQueue is a calendar queue. Events whose bucket index falls within
// [cur, cur+wheelBuckets) live in the wheel; later events wait in the far
// heap and migrate in as cur advances. Invariant: every far event's bucket
// index is >= cur, and at any moment the earliest event overall is in the
// wheel whenever the wheel is non-empty.
type eventQueue struct {
	// wheel slot storage is recycled: bucket slices keep their capacity
	// after being drained, acting as a free list for event slots.
	wheel [wheelBuckets][]event
	// occ is an occupancy bitmap over wheel slots for O(1) next-bucket
	// scans.
	occ   [wheelBuckets / 64]uint64
	cur   int64 // monotonic bucket counter: wheel horizon is [cur, cur+wheelBuckets)
	count int   // events resident in the wheel
	far   eventHeap
}

func (q *eventQueue) empty() bool { return q.count == 0 && len(q.far) == 0 }

func (q *eventQueue) len() int { return q.count + len(q.far) }

func (q *eventQueue) push(e event) {
	if int64(e.at)>>bucketShift >= q.cur+wheelBuckets {
		q.far.push(e)
		return
	}
	q.wheelInsert(e)
}

func (q *eventQueue) wheelInsert(e event) {
	bi := int64(e.at) >> bucketShift
	if bi < q.cur {
		// A bounded pop may advance cur past bucket(now) without running
		// the event it peeked at. Insertions before cur park in the first
		// bucket: the per-bucket (at, seq) scan still pops them first, and
		// cur cannot advance past a non-empty current bucket.
		bi = q.cur
	}
	slot := bi & wheelMask
	q.wheel[slot] = append(q.wheel[slot], e)
	q.occ[slot>>6] |= 1 << uint(slot&63)
	q.count++
}

// migrate pulls far-heap events that now fall inside the wheel horizon.
// It must run whenever cur advances, or a later wheel insertion could be
// popped ahead of an earlier far event.
func (q *eventQueue) migrate() {
	for len(q.far) > 0 && int64(q.far[0].at)>>bucketShift < q.cur+wheelBuckets {
		q.wheelInsert(q.far.pop())
	}
}

// firstSlot returns the first occupied wheel slot at or after cur,
// wrapping. Only valid when count > 0.
func (q *eventQueue) firstSlot() int64 {
	start := q.cur & wheelMask
	w := start >> 6
	if b := q.occ[w] &^ ((1 << uint(start&63)) - 1); b != 0 {
		return w<<6 | int64(bits.TrailingZeros64(b))
	}
	for i := int64(1); i <= int64(len(q.occ)); i++ {
		wi := (w + i) & (int64(len(q.occ)) - 1)
		if q.occ[wi] != 0 {
			return wi<<6 | int64(bits.TrailingZeros64(q.occ[wi]))
		}
	}
	panic("sim: occupancy bitmap empty with count > 0")
}

// peekPos advances the horizon to the first occupied bucket and returns the
// position and (at, seq) key of the earliest event without removing it. The
// horizon advance and far-heap migration it performs are order-neutral, so a
// peek whose event is not taken (the merged pop chose the timer wheel, or a
// bounded run stopped) leaves behavior unchanged.
func (q *eventQueue) peekPos() (slot int64, idx int, at Time, seq uint64, ok bool) {
	if q.count == 0 {
		if len(q.far) == 0 {
			return 0, 0, 0, 0, false
		}
		// The wheel drained with far events pending: jump the horizon to
		// the earliest far bucket and migrate.
		q.cur = int64(q.far[0].at) >> bucketShift
		q.migrate()
	}
	slot = q.firstSlot()
	// Advance cur to the bucket index the slot represents, then migrate:
	// far events that the advance brought inside the horizon land in
	// buckets strictly after this one, preserving order.
	q.cur += (slot - q.cur) & wheelMask
	q.migrate()

	b := q.wheel[slot]
	min := 0
	for i := 1; i < len(b); i++ {
		if b[i].at < b[min].at || (b[i].at == b[min].at && b[i].seq < b[min].seq) {
			min = i
		}
	}
	return slot, min, b[min].at, b[min].seq, true
}

// take removes and returns the event a peekPos located.
func (q *eventQueue) take(slot int64, idx int) event {
	b := q.wheel[slot]
	e := b[idx]
	last := len(b) - 1
	b[idx] = b[last]
	b[last] = event{} // release references for GC; slot capacity is reused
	q.wheel[slot] = b[:last]
	if last == 0 {
		q.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	q.count--
	return e
}

// pop removes and returns the earliest event. If bounded, events after
// limit are left in place and ok is false.
func (q *eventQueue) pop(limit Time, bounded bool) (e event, ok bool) {
	slot, idx, at, _, ok := q.peekPos()
	if !ok || (bounded && at > limit) {
		return event{}, false
	}
	return q.take(slot, idx), true
}

// peekTime returns the timestamp of the earliest pending event without
// mutating the queue. The wheel invariant (the earliest event overall is in
// the wheel whenever the wheel is non-empty, and earlier buckets hold
// strictly earlier times than later ones) makes the first occupied bucket's
// minimum the global minimum. The PDES coordinator uses this at every
// barrier to pick the next window start.
func (q *eventQueue) peekTime() (Time, bool) {
	if q.count == 0 {
		if len(q.far) == 0 {
			return 0, false
		}
		return q.far[0].at, true
	}
	b := q.wheel[q.firstSlot()]
	min := b[0].at
	for i := 1; i < len(b); i++ {
		if b[i].at < min {
			min = b[i].at
		}
	}
	return min, true
}

// Tracer observes the message path of a simulation. It is the hook behind
// the opt-in observability layer: when a tracer is installed, every process
// dispatch reports per-message queueing and processing times, and
// non-process hardware hops (wire serialization, NIC RX queues) report
// spans. With no tracer installed (the default) every trace point is a
// single nil check — zero allocation, zero behavioural impact.
//
// A Tracer is per-Simulator state, never global: parallel experiment
// sweeps run one simulator (and one tracer) per sweep point, which keeps
// concurrent runs byte-identical to sequential ones.
type Tracer interface {
	// OnMessage reports one handled message on process p: it arrived in the
	// inbox at arrivedAt, its handler started at start (queueing time is
	// start-arrivedAt) and finished at end (processing time is end-start).
	OnMessage(p *Proc, msg Message, arrivedAt, start, end Time)
	// OnSpan reports one traversal of a non-process hop (wire direction,
	// NIC RX queue) identified by hop: time spent queued behind other work
	// and time spent being processed/serialized.
	OnSpan(hop string, queued, processed Time)
}

// Simulator owns the virtual clock and the event queue. All machines,
// processes, NICs and links of one experiment hang off a single Simulator.
type Simulator struct {
	now      Time
	q        eventQueue
	seq      uint64
	rng      *rand.Rand
	machines []*Machine
	procs    []*Proc

	// procsMu guards the procs registry: in PDES mode replica rebuilds
	// create processes from inside concurrent domain windows.
	procsMu sync.Mutex

	// PDES mode (see pdes.go). pdes is the shared coordinator state when
	// conservative parallel simulation is enabled; parent points from a
	// domain shard back to the control-plane simulator (nil on the root and
	// in the default sequential mode); domID indexes the shard.
	pdes   *pdesCoord
	parent *Simulator
	domID  int

	crashWatchers []func(*Proc, error)

	// tracer is the installed observability hook, or nil (the default:
	// every trace point reduces to one nil check).
	tracer Tracer

	// batchFree recycles msgBatch carriers (and their message slices) so
	// steady-state batched delivery allocates nothing.
	batchFree []*msgBatch
	// tfFree recycles timerFire boxes between arm and firing for the same
	// reason. Boxes that die in flight (crash, drop injection) are simply
	// collected; the freelist only ever shrinks by reuse.
	tfFree []*timerFire

	// tw holds armed timers outside the event queue (see timerwheel.go).
	tw timerWheel

	// Stats
	eventsRun uint64
	// ipc holds the IPC ring instrumentation (see ipcstats.go); per-domain
	// in PDES mode, aggregated by IPCStats.
	ipc ipcCounters
}

// msgBatch carries the messages of one flush vector: the sends a dispatch
// released at one instant, delivered by a single simulator event to several
// inboxes. dsts is parallel to msgs and names each message's destination.
// The simulation is single-threaded, so a plain freelist suffices.
type msgBatch struct {
	msgs []Message
	dsts []*Proc
}

func (s *Simulator) getBatch() *msgBatch {
	if n := len(s.batchFree); n > 0 {
		b := s.batchFree[n-1]
		s.batchFree = s.batchFree[:n-1]
		return b
	}
	return &msgBatch{}
}

// New returns a Simulator whose randomness is derived from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun reports how many events have executed so far. On a PDES
// control-plane simulator it totals across all domains; call it only at a
// barrier (i.e. from driver code between Run calls).
func (s *Simulator) EventsRun() uint64 {
	n := s.eventsRun
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			n += d.eventsRun
		}
	}
	return n
}

// rootSim returns the control-plane simulator: s itself unless s is a PDES
// domain shard.
func (s *Simulator) rootSim() *Simulator {
	if s.parent != nil {
		return s.parent
	}
	return s
}

// SetTracer installs (or, with nil, removes) the observability hook.
// Install it before the simulation runs: messages already sitting in
// process inboxes at install time carry no arrival stamp, and their
// dispatch batches are skipped by the per-message trace.
func (s *Simulator) SetTracer(t Tracer) {
	s.tracer = t
	if s.pdes != nil && s.parent == nil {
		// Domains share the control plane's tracer. A tracer is shared
		// mutable state, so the coordinator serializes domain execution
		// (workers=1) whenever one is installed.
		for _, d := range s.pdes.domains {
			d.tracer = t
		}
	}
}

// Tracer returns the installed observability hook, or nil.
func (s *Simulator) Tracer() Tracer { return s.tracer }

// schedule clamps t to now, stamps the sequence number and enqueues.
func (s *Simulator) schedule(t Time, e event) {
	if s.pdes != nil && s.parent == nil && s.pdes.inWindow.Load() {
		// Domain code must never schedule on the control plane while
		// windows execute concurrently: the control queue is only touched
		// at barriers. Cross-domain influence goes through the wire.
		panic("sim: control-plane schedule during a parallel window")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.at = t
	e.seq = s.seq
	s.q.push(e)
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; it is clamped to "now" to keep the clock monotonic.
func (s *Simulator) At(t Time, fn func()) {
	s.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// AtEvent schedules h.OnEvent(tag) at absolute time t without allocating.
func (s *Simulator) AtEvent(t Time, h EventHandler, tag uint64) {
	s.schedule(t, event{kind: evHandler, h: h, tag: tag})
}

// AfterEvent schedules h.OnEvent(tag) d nanoseconds from now.
func (s *Simulator) AfterEvent(d Time, h EventHandler, tag uint64) {
	s.AtEvent(s.now+d, h, tag)
}

// DeliverAt delivers msg to p at absolute time t without allocating a
// closure. It is the scheduled-delivery primitive behind NIC interrupts
// and delayed IPC.
func (s *Simulator) DeliverAt(t Time, p *Proc, msg Message) {
	s.schedule(t, event{kind: evDeliver, proc: p, msg: msg})
}

// run executes one popped event.
func (s *Simulator) run(e event) {
	s.now = e.at
	s.eventsRun++
	switch e.kind {
	case evFunc:
		e.fn()
	case evDispatch:
		e.proc.runDispatch()
	case evDeliver:
		e.proc.Deliver(e.msg)
	case evHandler:
		e.h.OnEvent(e.tag)
	case evDeliverBatch:
		b := e.msg.(*msgBatch)
		// A batch of N messages is N logical deliveries: count it as N
		// events so EventsRun (and everything reported from it) is
		// independent of how deliveries were grouped.
		s.eventsRun += uint64(len(b.msgs)) - 1
		// Deliveries land in slice order, exactly the order the sends were
		// buffered, whatever their targets.
		for i, m := range b.msgs {
			b.dsts[i].Deliver(m)
			b.msgs[i] = nil
			b.dsts[i] = nil
		}
		b.dsts = b.dsts[:0]
		b.msgs = b.msgs[:0]
		s.batchFree = append(s.batchFree, b)
	}
}

// Idle reports whether no events remain. On a PDES control plane this
// inspects every domain queue (flushing cross-domain mailboxes first) and
// must only be called at a barrier.
func (s *Simulator) Idle() bool {
	if s.pdes != nil && s.parent == nil {
		if !s.idleLocal() {
			return false
		}
		s.pdes.flush()
		for _, d := range s.pdes.domains {
			if !d.idleLocal() {
				return false
			}
		}
		return true
	}
	return s.idleLocal()
}

// Step executes the next event, if any, and reports whether one ran.
// Not supported on a PDES control plane (there is no single next event);
// use RunUntil/RunFor/Drain there.
func (s *Simulator) Step() bool {
	if s.pdes != nil && s.parent == nil {
		panic("sim: Step is not supported in PDES mode; use RunUntil")
	}
	return s.stepNext(0, false)
}

// RunUntil executes events until the clock reaches t or the queue drains.
// The clock is left at t even if the queue drained earlier. On a PDES
// control plane this advances all domains in lookahead-bounded windows.
func (s *Simulator) RunUntil(t Time) {
	if s.pdes != nil && s.parent == nil {
		s.runPDES(t, false)
		return
	}
	for s.stepNext(t, true) {
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d Time) { s.RunUntil(s.now + d) }

// Drain runs until no events remain. Experiments with self-sustaining load
// (timers that always re-arm) must use RunUntil instead.
func (s *Simulator) Drain() {
	if s.pdes != nil && s.parent == nil {
		s.runPDES(0, true)
		return
	}
	for s.Step() {
	}
}

// OnCrash registers fn to be called whenever any process crashes.
// The NEaT recovery manager uses this as its failure detector (the paper's
// microkernel notifies the recovery server of process faults the same way).
func (s *Simulator) OnCrash(fn func(*Proc, error)) {
	s.crashWatchers = append(s.crashWatchers, fn)
}

func (s *Simulator) notifyCrash(p *Proc, cause error) {
	for _, fn := range s.crashWatchers {
		fn(p, cause)
	}
}

// Machines returns all machines registered with the simulator. A PDES
// domain shard reports only its own machine; the control plane reports all.
func (s *Simulator) Machines() []*Machine { return s.machines }

// Procs returns all processes ever created, including dead ones. The
// registry lives on the control-plane simulator; in PDES mode call this only
// at a barrier.
func (s *Simulator) Procs() []*Proc { return s.rootSim().procs }

// addProc registers p with the control-plane simulator. Replica rebuilds can
// create processes from inside concurrent domain windows, hence the lock.
func (s *Simulator) addProc(p *Proc) {
	r := s.rootSim()
	r.procsMu.Lock()
	r.procs = append(r.procs, p)
	r.procsMu.Unlock()
}
