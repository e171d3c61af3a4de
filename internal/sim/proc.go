package sim

import (
	"errors"
	"fmt"
)

// Message is anything delivered to a process. Concrete message types are
// defined by the packages that own each protocol (packets, socket
// operations, timer ticks, ...). Handlers type-switch on them.
type Message interface{}

// Handler is the event-driven body of a process. A process is strictly
// single-threaded: HandleMessage is invoked for one message at a time and
// must charge the cycles it consumed through the Context. This is the
// paper's isolation principle in code — the only way a handler can affect
// the outside world is by sending messages.
type Handler interface {
	HandleMessage(ctx *Context, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Context, msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(ctx *Context, msg Message) { f(ctx, msg) }

// BatchHandler is an optional extension of Handler. When a process's
// handler implements it, the dispatch loop brackets every inbox batch with
// BeginBatch/EndBatch: the handler learns it is draining a vector of n
// messages in one activation and can hoist per-activation state (its
// Context, connection lookups) out of the per-message path. The bracket is
// bookkeeping only — implementations must not charge cycles or send
// messages from it, so a handler with or without the extension produces a
// byte-identical simulation.
type BatchHandler interface {
	BeginBatch(ctx *Context, n int)
	EndBatch()
}

// CostCategory classifies where a process's cycles went. The driver CPU
// breakdown of the paper's Table 2 (kernel suspend/resume vs polling vs
// useful processing) is reconstructed from these.
type CostCategory int

const (
	// CostProcessing is useful protocol/application work.
	CostProcessing CostCategory = iota
	// CostPolling is time spent checking empty queues.
	CostPolling
	// CostKernel is time spent suspending/resuming in the (micro)kernel,
	// i.e. the MWAIT halt/wake path.
	CostKernel
	numCostCategories
)

// String names the category.
func (c CostCategory) String() string {
	switch c {
	case CostProcessing:
		return "processing"
	case CostPolling:
		return "polling"
	case CostKernel:
		return "kernel"
	default:
		return fmt.Sprintf("CostCategory(%d)", int(c))
	}
}

type procState int

const (
	procIdle procState = iota
	procScheduled
	procRunning
	procDead
)

// ErrKilled is the crash cause recorded when a process is killed
// administratively (e.g. by the fault injector or a scale-down command).
var ErrKilled = errors.New("sim: process killed")

// ProcStats aggregates a process's activity.
type ProcStats struct {
	Dispatches   uint64
	Messages     uint64
	Dropped      uint64 // messages dropped because the process was dead
	DropInjected uint64 // messages dropped by fault injection (SetDropRate)
	Halts        uint64 // idle transitions (MWAIT entries)
	CostNs       [numCostCategories]Time
	CyclesByCat  [numCostCategories]int64
	TotalCharged int64 // cycles
}

// HeartbeatPing probes a process for liveness. It is answered by the
// dispatch loop itself, never by the process handler: a process acks a
// ping if and only if it is actually draining its inbox, so both crashes
// (deliveries dropped) and livelocks (deliveries queued but never
// dispatched) manifest identically to the prober as missing acks.
type HeartbeatPing struct {
	ReplyTo *Proc
	Seq     uint64
}

// HeartbeatAck is the dispatch loop's reply to a HeartbeatPing.
type HeartbeatAck struct {
	From *Proc
	Seq  uint64
}

// HeartbeatCycles is the cost of answering one heartbeat probe (an inbox
// pop plus a channel write — no protocol work).
const HeartbeatCycles = 120

// BusyNs returns total execution time across all categories.
func (st *ProcStats) BusyNs() Time {
	var t Time
	for _, v := range st.CostNs {
		t += v
	}
	return t
}

// Proc is an isolated, single-threaded, event-driven process pinned to a
// hardware thread — the unit of isolation in NEaT. Processes communicate
// exclusively by message passing; a crash destroys the process and all of
// its private state, and a replacement must be spawned from scratch.
type Proc struct {
	sim     *Simulator
	machine *Machine
	thread  *HWThread
	handler Handler
	// bh is handler's BatchHandler extension, asserted once at creation so
	// the dispatch loop pays a nil check instead of a type assertion.
	bh BatchHandler

	// Name identifies the process in logs and topology dumps, e.g.
	// "neat2.tcp" or "nicdrv0".
	Name string

	// Component is a coarse label ("tcp", "ip", "driver", ...) used by the
	// fault injector to weight fault sites by component.
	Component string

	// WakeCycles is the cost of waking the process out of a halt (the
	// MWAIT monitor write path). Charged as CostKernel.
	WakeCycles int64
	// HaltCycles is the cost of entering a halt (MWAIT is privileged, so
	// on NewtOS this enters the kernel). Charged as CostKernel.
	HaltCycles int64
	// DispatchCycles is the fixed per-message dispatch overhead.
	DispatchCycles int64

	// ASLRSeed is the randomized address-space layout token of this
	// incarnation. Every (re)spawn draws a fresh one, modelling the
	// re-randomization security property of §3.8.
	ASLRSeed uint64

	inbox []Message
	spare []Message // recycled inbox storage for the next dispatch
	// inboxAt/spareAt are arrival stamps parallel to inbox/spare. They are
	// populated only while a Tracer is installed (both stay nil otherwise),
	// and their storage is recycled exactly like the inbox double-buffer, so
	// tracing off costs nothing and tracing on costs no steady-state
	// allocation.
	inboxAt      []Time
	spareAt      []Time
	state        procState
	charged      int64
	chargedByCat [numCostCategories]int64
	pending      []outMsg // sends buffered during the current dispatch
	// groups is the flush's open-vector scratch space, recycled like
	// pending so vectorized release allocates nothing in steady state.
	groups []flushGroup
	// ctx is the reusable handler context. Handlers receive *Context, which
	// would force a heap allocation per dispatch if the Context lived on the
	// runDispatch stack; hoisting it into the Proc makes the escape free.
	ctx      Context
	stats    ProcStats
	crashed  error
	hung     bool    // livelocked: alive but never drains the inbox
	dropRate float64 // injected IPC loss probability per delivery
	failedAt Time    // when the current fault (crash or hang) began
}

type outMsg struct {
	dst   *Proc
	msg   Message
	delay Time
	// cyclesAt is the sender's charged-cycle position when the owning
	// message finished processing; the send is released at that point of
	// the dispatch, not at the end of the whole batch.
	cyclesAt int64
	// timer, when non-nil, marks a timer arm: msg is the unboxed user
	// message and tgen the generation it was armed under. The flush routes
	// the arm to the timer wheel, unless a Stop or a later Retimer has moved
	// the timer's generation on since.
	timer *Timer
	tgen  uint32
}

// flushGroup tracks one open delivery vector while the dispatch flush
// walks the pending sends: every non-timer send sharing a release time
// joins the same simulator event, whatever its destination. A nil batch
// marks a group closed by a timer barrier (its event is already scheduled;
// later sends at the same time must sequence after the firing).
type flushGroup struct {
	at Time
	b  *msgBatch
}

// ProcConfig carries optional knobs for NewProc.
type ProcConfig struct {
	Component      string
	WakeCycles     int64
	HaltCycles     int64
	DispatchCycles int64
}

// NewProc creates a process pinned to thread t. The zero ProcConfig yields
// modest default overheads.
func NewProc(t *HWThread, name string, h Handler, cfg ProcConfig) *Proc {
	m := t.Machine()
	p := &Proc{
		sim:            m.sim,
		machine:        m,
		thread:         t,
		handler:        h,
		Name:           name,
		Component:      cfg.Component,
		WakeCycles:     cfg.WakeCycles,
		HaltCycles:     cfg.HaltCycles,
		DispatchCycles: cfg.DispatchCycles,
		ASLRSeed:       m.sim.rng.Uint64(),
	}
	if p.Component == "" {
		p.Component = name
	}
	p.bh, _ = h.(BatchHandler)
	p.ctx = Context{Sim: m.sim, Proc: p}
	t.procs = append(t.procs, p)
	m.sim.addProc(p)
	return p
}

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Machine returns the machine the process runs on.
func (p *Proc) Machine() *Machine { return p.machine }

// Thread returns the hardware thread the process is pinned to.
func (p *Proc) Thread() *HWThread { return p.thread }

// Stats returns a snapshot of the process statistics.
func (p *Proc) Stats() ProcStats { return p.stats }

// Dead reports whether the process has crashed or been killed.
func (p *Proc) Dead() bool { return p.state == procDead }

// Hung reports whether the process is livelocked (alive but not draining
// its inbox).
func (p *Proc) Hung() bool { return p.hung }

// FailedAt returns the simulated time the current fault (crash or hang)
// began, for measuring failure-detection latency. Zero if never failed.
func (p *Proc) FailedAt() Time { return p.failedAt }

// Hang livelocks the process: it stays alive — deliveries are accepted
// and queue up — but its dispatch loop never runs again, so nothing is
// processed and no heartbeat is answered. This is the fault the crash
// oracle cannot see: only an active prober (a watchdog counting missed
// heartbeats) can detect it. A hung process can still be crashed/killed.
func (p *Proc) Hang() {
	if p.state == procDead || p.hung {
		return
	}
	p.hung = true
	p.failedAt = p.sim.now
}

// SetDropRate injects IPC message loss: every delivery to this process is
// dropped with probability rate (drawn from the simulation's deterministic
// random source). Lost deliveries include heartbeat probes, so a lossy
// channel can cause spurious failure detections — the imperfect-detector
// scenario. Rate 0 disables injection.
func (p *Proc) SetDropRate(rate float64) { p.dropRate = rate }

// Respawn revives a dead process in place as a fresh incarnation: empty
// inbox, fresh ASLR seed, cleared fault state. The Proc object — its IPC
// endpoint — stays the same, modelling the reincarnation-server contract
// for system services (NIC driver, SYSCALL server): clients keep their
// channel to the stable endpoint while the process behind it is replaced.
// Cumulative statistics survive; all in-flight state is gone.
func (p *Proc) Respawn() {
	if p.state != procDead {
		return
	}
	p.state = procIdle
	p.crashed = nil
	p.hung = false
	p.dropRate = 0
	p.failedAt = 0
	p.inbox = nil
	p.inboxAt = nil
	p.pending = p.pending[:0]
	p.ASLRSeed = p.sim.rng.Uint64()
}

// QueueLen returns the number of undelivered messages in the inbox.
func (p *Proc) QueueLen() int { return len(p.inbox) }

// Deliver places msg in the process inbox at the current simulated time and
// wakes the process if it was halted. Messages to dead processes are
// dropped and counted, mirroring the NIC driver holding packets back from a
// crashed replica (§3.6).
func (p *Proc) Deliver(msg Message) {
	if p.state == procDead {
		p.stats.Dropped++
		return
	}
	if p.dropRate > 0 && p.sim.rng.Float64() < p.dropRate {
		p.stats.DropInjected++
		return
	}
	p.inbox = append(p.inbox, msg)
	if p.sim.tracer != nil {
		p.inboxAt = append(p.inboxAt, p.sim.now)
	}
	if p.state == procIdle && !p.hung {
		p.scheduleDispatch()
	}
}

// scheduleDispatch arranges the next dispatch on the pinned thread.
func (p *Proc) scheduleDispatch() {
	p.state = procScheduled
	start := p.sim.now
	if p.thread.freeAt > start {
		start = p.thread.freeAt
	}
	// Waking out of MWAIT costs kernel time before useful work starts.
	if p.WakeCycles > 0 {
		wake := p.machine.Cycles(p.WakeCycles)
		p.accountCost(CostKernel, p.WakeCycles, wake)
		p.thread.busyTotal += wake
		start += wake
	}
	_, n := p.sim.schedule(start, evDispatch)
	n.msg = p
}

// runDispatch drains the inbox, executing the handler for each message that
// was queued when the dispatch began. All sends are released when the
// dispatch's computed execution time elapses.
func (p *Proc) runDispatch() {
	if p.state != procScheduled {
		return // killed between scheduling and running
	}
	if p.hung {
		// Livelocked: the dispatch fires but drains nothing; queued
		// messages (including heartbeat probes) sit in the inbox forever.
		p.state = procIdle
		return
	}
	p.state = procRunning
	p.stats.Dispatches++

	t0 := p.sim.now
	// Double-buffer the inbox: messages arriving during the dispatch go to
	// the recycled spare slice, so steady state reallocates neither. The
	// arrival stamps rotate in lockstep when tracing is on.
	batch := p.inbox
	batchAt := p.inboxAt
	p.inbox = p.spare[:0]
	p.inboxAt = p.spareAt[:0]
	p.charged = 0
	for i := range p.chargedByCat {
		p.chargedByCat[i] = 0
	}
	// The hyperthreading stretch factor depends only on the dispatch start
	// time, so it can be computed up front; the per-message trace uses it
	// to place each handler's start/end inside the batch's wall time.
	factor := 1.0
	if p.thread.siblingBusy(t0) {
		factor = p.machine.HTPenalty
	}
	tr := p.sim.tracer
	// A tracer installed mid-run sees batches whose older messages carry no
	// arrival stamp; such mixed batches are skipped rather than mismatched.
	traced := tr != nil && len(batchAt) == len(batch)
	ctx := &p.ctx
	bracket := p.bh != nil && len(batch) > 0
	if bracket {
		p.bh.BeginBatch(ctx, len(batch))
	}
	for i, msg := range batch {
		if p.state == procDead {
			break
		}
		if tf, ok := msg.(*timerFire); ok {
			stale := tf.gen != tf.t.gen
			if !stale {
				tf.t.node = timerFired
			}
			msg = tf.msg
			// The box has served its one delivery; recycle it. Boxes that
			// never reach this point (crashed process, injected drop) simply
			// fall to the garbage collector.
			*tf = timerFire{}
			p.sim.tfFree = append(p.sim.tfFree, tf)
			if stale {
				continue // stopped or re-armed since this firing was scheduled
			}
		}
		if hb, ok := msg.(HeartbeatPing); ok {
			// Liveness probes are answered by the dispatch loop itself:
			// the ack certifies "this process is draining its inbox".
			// They are not part of the message path, so they are not traced.
			p.stats.Messages++
			p.charged += p.DispatchCycles + HeartbeatCycles
			p.chargedByCat[CostProcessing] += p.DispatchCycles + HeartbeatCycles
			p.pending = append(p.pending, outMsg{dst: hb.ReplyTo,
				msg: HeartbeatAck{From: p, Seq: hb.Seq}, cyclesAt: p.charged})
			continue
		}
		p.stats.Messages++
		chargedBefore := p.charged
		p.charged += p.DispatchCycles
		p.chargedByCat[CostProcessing] += p.DispatchCycles
		pendingStart := len(p.pending)
		p.handler.HandleMessage(ctx, msg)
		// Sends emitted while handling this message leave when the
		// message's processing completes, not when the batch ends.
		for j := pendingStart; j < len(p.pending); j++ {
			p.pending[j].cyclesAt = p.charged
		}
		if traced {
			start := t0 + Time(float64(p.machine.Cycles(chargedBefore))*factor)
			end := t0 + Time(float64(p.machine.Cycles(p.charged))*factor)
			tr.OnMessage(p, msg, batchAt[i], start, end)
		}
	}
	if bracket {
		p.bh.EndBatch()
	}
	for i := range batch {
		batch[i] = nil // drop message references before recycling
	}
	p.spare = batch[:0]
	p.spareAt = batchAt[:0]

	// Compute wall time of this dispatch: charged cycles at nominal
	// frequency, stretched if the sibling hyperthread is busy.
	dur := Time(float64(p.machine.Cycles(p.charged)) * factor)
	tEnd := t0 + dur
	p.thread.freeAt = tEnd
	p.thread.busyTotal += dur
	p.stats.TotalCharged += p.charged
	for cat := CostCategory(0); cat < numCostCategories; cat++ {
		cyc := p.chargedByCat[cat]
		if cyc == 0 {
			continue
		}
		p.stats.CyclesByCat[cat] += cyc
		p.stats.CostNs[cat] += Time(float64(p.machine.Cycles(cyc)) * factor)
	}

	// Release buffered sends at each message's completion point within the
	// dispatch. All sends sharing a release time — a burst of RX frames
	// forwarded to one replica, a TCP window's worth of segments to the IP
	// component, a syscall reply next to a driver doorbell — coalesce into
	// one delivery vector carried by a single simulator event, whatever
	// their destinations. The vector delivers in buffered order under the
	// sequence number of its first send, and every sequence number between
	// two sends of one flush belongs to this same flush, so the global
	// delivery order is exactly what per-send events would have produced:
	// batching changes the container, not the deliveries.
	pend := p.pending
	groups := p.groups[:0]
	for i := 0; i < len(pend); {
		out := &pend[i]
		at := t0 + Time(float64(p.machine.Cycles(out.cyclesAt))*factor) + out.delay
		if out.timer != nil {
			if out.tgen == out.timer.gen {
				// Timer barrier: an open vector at this release time must
				// close before the arm takes its sequence number. Its event
				// already holds an earlier sequence — it delivers before the
				// firing — and sends buffered after the arm must deliver
				// after it.
				for gi := range groups {
					if groups[gi].b != nil && groups[gi].at == at {
						p.sim.noteIPCBatch(len(groups[gi].b.msgs))
						groups[gi].b = nil
					}
				}
				p.sim.armTimer(at, out.timer, out.msg)
			}
			pend[i] = outMsg{} // drop references; the slice is recycled
			i++
			continue
		}
		var b *msgBatch
		for gi := range groups {
			if groups[gi].b != nil && groups[gi].at == at {
				b = groups[gi].b
				break
			}
		}
		if b == nil {
			b = p.sim.getBatch()
			// Scheduling at group creation fixes the vector's sequence
			// position; messages appended afterwards ride in the same event
			// (the batch is only read when the event pops, strictly after
			// this flush completes).
			_, n := p.sim.schedule(at, evDeliverBatch)
			n.msg = b
			groups = append(groups, flushGroup{at: at, b: b})
		}
		b.msgs = append(b.msgs, out.msg)
		b.dsts = append(b.dsts, out.dst)
		pend[i] = outMsg{}
		i++
	}
	for gi := range groups {
		if groups[gi].b != nil {
			p.sim.noteIPCBatch(len(groups[gi].b.msgs))
		}
		groups[gi] = flushGroup{}
	}
	p.groups = groups[:0]
	p.pending = p.pending[:0]

	if p.state == procDead {
		return
	}
	if len(p.inbox) > 0 && !p.hung {
		// More work arrived while running; go again back-to-back.
		p.state = procScheduled
		_, n := p.sim.schedule(tEnd, evDispatch)
		n.msg = p
		return
	}
	// Halt (enter MWAIT). The halt path costs kernel time.
	p.state = procIdle
	p.stats.Halts++
	if p.HaltCycles > 0 {
		halt := p.machine.Cycles(p.HaltCycles)
		p.accountCost(CostKernel, p.HaltCycles, halt)
		p.thread.freeAt = tEnd + halt
		p.thread.busyTotal += halt
	}
}

func (p *Proc) accountCost(cat CostCategory, cycles int64, d Time) {
	p.stats.CyclesByCat[cat] += cycles
	p.stats.CostNs[cat] += d
	p.stats.TotalCharged += cycles
}

// Crash terminates the process with the given cause: its inbox and all
// private state are lost, future deliveries are dropped, and crash watchers
// (the recovery manager) are notified.
func (p *Proc) Crash(cause error) {
	if p.state == procDead {
		return
	}
	p.state = procDead
	p.crashed = cause
	if !p.hung {
		// A hung process killed by a watchdog keeps its hang time: failure
		// detection latency is measured from when the fault began.
		p.failedAt = p.sim.now
	}
	p.inbox = nil
	p.inboxAt = nil
	p.pending = p.pending[:0]
	p.sim.notifyCrash(p, cause)
}

// Kill terminates the process administratively (no crash notification
// semantics differ from Crash only in the recorded cause).
func (p *Proc) Kill() { p.Crash(ErrKilled) }

// CrashCause returns the error a dead process crashed with, or nil.
func (p *Proc) CrashCause() error { return p.crashed }

// Context is passed to handlers; it is the only interface through which a
// running process may consume time or emit messages.
type Context struct {
	Sim  *Simulator
	Proc *Proc
}

// Charge records cycles of useful processing for the current dispatch.
func (c *Context) Charge(cycles int64) { c.ChargeAs(CostProcessing, cycles) }

// ChargeAs records cycles against a specific cost category.
func (c *Context) ChargeAs(cat CostCategory, cycles int64) {
	c.Proc.charged += cycles
	c.Proc.chargedByCat[cat] += cycles
}

// Send delivers msg to dst when the current dispatch's execution completes.
func (c *Context) Send(dst *Proc, msg Message) { c.SendDelayed(dst, msg, 0) }

// SendDelayed delivers msg to dst an additional delay after the current
// dispatch completes (used to model channel/notification latency).
func (c *Context) SendDelayed(dst *Proc, msg Message, delay Time) {
	c.Proc.pending = append(c.Proc.pending, outMsg{dst: dst, msg: msg, delay: delay})
}

// Timer is a cancellable self-delivery armed by a handler. A Timer can be
// re-armed with Retimer, which cancels the previous arming. While armed it
// owns one entry of its simulator's timer wheel (see timerwheel.go); the
// handle finds that entry by itself, so Stop needs no Context.
type Timer struct {
	p *Proc // process of the latest arm; its simulator's wheel holds the entry
	// gen is bumped by Stop and Retimer. The wheel entry is gone by then; the
	// generation cancels what the wheel no longer holds — an arm still
	// buffered in its dispatch, a firing popped but not yet dispatched.
	gen  uint32
	node uint32 // wheel node while resident, else timerIdle or timerFired
}

// Stop cancels the timer if it has not fired.
func (t *Timer) Stop() {
	t.gen++
	if t.Armed() {
		t.p.sim.tw.stopTimer(t)
	}
}

// Fired reports whether the timer message was delivered.
func (t *Timer) Fired() bool { return t.node == timerFired }

// Armed reports whether the timer holds a wheel entry: armed, flushed by
// its dispatch, and neither fired nor stopped since.
func (t *Timer) Armed() bool { return t.node != timerIdle && t.node != timerFired }

// TimerAfter delivers msg back to the calling process d after the current
// dispatch completes, unless stopped.
func (c *Context) TimerAfter(d Time, msg Message) *Timer {
	t := &Timer{}
	c.Retimer(t, d, msg)
	return t
}

// Retimer re-arms t to deliver msg d after the current dispatch completes,
// cancelling any previous arming. Hot paths (TCP retransmission, delayed
// ACK) reuse one Timer per logical timer instead of allocating on every arm.
// The arm is buffered unboxed; the flush links it into the timer wheel and
// the firing box is built only at delivery, so arming allocates nothing in
// steady state.
func (c *Context) Retimer(t *Timer, d Time, msg Message) {
	t.Stop()
	t.node = timerIdle // not fired either
	p := c.Proc
	t.p = p
	p.pending = append(p.pending, outMsg{msg: msg, delay: d, timer: t, tgen: t.gen})
}

// timerFire wraps a timer delivery; runDispatch unwraps it transparently
// (and drops stale generations) so handlers always see the original message.
// Boxes are recycled through the simulator's freelist: arming a timer in
// steady state reuses the box released by an earlier firing.
type timerFire struct {
	t   *Timer
	gen uint32
	msg Message
}

func (s *Simulator) newTimerFire(t *Timer, gen uint32, msg Message) *timerFire {
	if n := len(s.tfFree); n > 0 {
		tf := s.tfFree[n-1]
		s.tfFree = s.tfFree[:n-1]
		*tf = timerFire{t, gen, msg}
		return tf
	}
	return &timerFire{t, gen, msg}
}
