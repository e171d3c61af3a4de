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
// run into per-machine scheduler domains advanced in lookahead-bounded
// windows; it trades the sequential mode's global event order for
// machine-local determinism (per-domain RNG streams and sequence counters),
// so its results are reproducible across any worker count but not
// byte-identical to the sequential mode.
//
// Scheduled events and armed timers share one scheduler, a hierarchical
// timing wheel whose pooled nodes are recycled run after run (see
// timerwheel.go). The hottest schedule sites use closure-free event kinds
// so that steady-state scheduling performs no allocation at all.
package sim

import (
	"fmt"
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

// Simulator owns the virtual clock and the scheduler. All machines,
// processes, NICs and links of one experiment hang off a single Simulator.
type Simulator struct {
	now      Time
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

	// tw holds every scheduled event and armed timer (see timerwheel.go).
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

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model; it is clamped to "now" to keep the clock monotonic.
func (s *Simulator) At(t Time, fn func()) {
	_, n := s.schedule(t, evFunc)
	n.msg = fn
}

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// AtEvent schedules h.OnEvent(tag) at absolute time t without allocating.
func (s *Simulator) AtEvent(t Time, h EventHandler, tag uint64) {
	_, n := s.schedule(t, evHandler)
	n.msg, n.tag = h, tag
}

// DeliverAt delivers msg to p at absolute time t without allocating a
// closure: a pooled delivery vector of one. It is the scheduled-delivery
// primitive behind NIC interrupts and delayed IPC.
func (s *Simulator) DeliverAt(t Time, p *Proc, msg Message) {
	b := s.getBatch()
	b.msgs = append(b.msgs, msg)
	b.dsts = append(b.dsts, p)
	_, n := s.schedule(t, evDeliverBatch)
	n.msg = b
}

// deliverBatch runs one popped delivery vector and recycles its carrier.
func (s *Simulator) deliverBatch(b *msgBatch) {
	// A batch of N messages is N logical deliveries: count it as N events
	// so EventsRun (and everything reported from it) is independent of how
	// deliveries were grouped.
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
