package sim

// Conservative parallel discrete-event simulation (PDES).
//
// EnablePDES splits one simulation into per-machine domains: every Machine
// created afterwards owns a private scheduler, clock, sequence counter,
// RNG stream and freelists (a full shard Simulator), while the simulator
// EnablePDES was called on remains the control plane — it keeps the driver
// code's At/After closures (experiment harness steps, fault-storm strikes)
// in its own scheduler and coordinates the domains.
//
// Correctness rests on lookahead: the only cross-machine channel is the
// wire, and a link never delivers earlier than serialization floor +
// propagation delay after the send. The coordinator therefore advances all
// domains in parallel through windows no wider than the minimum registered
// lookahead; influence generated inside a window lands strictly after it,
// so domains never see each other mid-window. Cross-domain deliveries
// travel through per-link mailboxes that registered flushers drain into the
// receiving domain's scheduler at each barrier, in deterministic order.
//
// Determinism: each domain's execution depends only on its own scheduler, RNG
// and the barrier-flushed mailbox contents — all of which are independent
// of the worker count — so a run with N workers is byte-identical to the
// same run with 1 worker. The sequential (non-PDES) mode is a different
// schedule: it interleaves shared-RNG draws and event sequence numbers
// globally, which no parallel execution can reproduce, so the determinism
// oracle for PDES is workers=1 vs workers=N, and the sequential mode keeps
// its own md5-pinned oracles.

import (
	"math/rand"
	"sync/atomic"
)

// maxTime is a sentinel far beyond any reachable simulation time.
const maxTime = Time(1<<62 - 1)

// pdesCoord is the coordinator state shared by the control plane and all
// domain shards of one parallel simulation.
type pdesCoord struct {
	root    *Simulator
	workers int
	domains []*Simulator

	// lookahead is the minimum registered cross-domain latency; 0 means no
	// channel was registered and windows are unbounded.
	lookahead Time
	// flushers drain cross-domain mailboxes into domain queues at each
	// barrier, in registration order.
	flushers []func()
	// inWindow is set while worker goroutines execute a window; the
	// control-plane schedule path panics if touched during one.
	inWindow atomic.Bool

	barriers uint64
}

func (c *pdesCoord) flush() {
	for _, fn := range c.flushers {
		fn()
	}
}

// EnablePDES switches the simulator into conservative parallel mode: every
// machine created afterwards receives its own scheduler domain, and
// RunUntil advances all domains in windows bounded by the registered
// cross-domain lookahead, workers domains at a time. Must be called before
// any machine is created. workers=1 executes domains sequentially in
// creation order and is the determinism oracle for every other worker
// count; the default (never calling EnablePDES) keeps the single global
// event loop.
func (s *Simulator) EnablePDES(workers int) {
	if s.parent != nil {
		panic("sim: EnablePDES on a domain shard")
	}
	if s.pdes != nil {
		panic("sim: EnablePDES called twice")
	}
	if len(s.machines) > 0 {
		panic("sim: EnablePDES must be called before machines are created")
	}
	if workers < 1 {
		workers = 1
	}
	s.pdes = &pdesCoord{root: s, workers: workers}
}

// PDESEnabled reports whether this simulator is a PDES control plane.
func (s *Simulator) PDESEnabled() bool { return s.pdes != nil && s.parent == nil }

// newDomain creates one domain shard. Its RNG stream is seeded from the
// control plane's RNG, so domain randomness is fixed at creation and
// independent of the runtime interleaving.
func (s *Simulator) newDomain() *Simulator {
	d := &Simulator{
		rng:    rand.New(rand.NewSource(s.rng.Int63())),
		tracer: s.tracer,
		pdes:   s.pdes,
		parent: s,
		domID:  len(s.pdes.domains),
	}
	s.pdes.domains = append(s.pdes.domains, d)
	return d
}

// RegisterLookahead informs the coordinator of a lower bound d on the
// latency of one cross-domain channel: nothing sent over the channel at
// time t may take effect before t+d. The window horizon is the minimum over
// all registered channels. No-op when PDES is off.
func (s *Simulator) RegisterLookahead(d Time) {
	c := s.rootSim().pdes
	if c == nil {
		return
	}
	if d < Nanosecond {
		d = Nanosecond
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// RegisterBarrierFlush registers fn to run at every barrier, before the
// coordinator inspects domain queues. Cross-domain channels use it to move
// mailbox entries into the receiving domain's queue; fn always runs with
// every domain quiescent. No-op when PDES is off.
func (s *Simulator) RegisterBarrierFlush(fn func()) {
	c := s.rootSim().pdes
	if c == nil {
		return
	}
	c.flushers = append(c.flushers, fn)
}

// DomainStat is one domain's contribution to PDESStats.
type DomainStat struct {
	Name   string // the domain's machine name
	Events uint64
}

// PDESStats reports coordinator counters: barriers executed, the effective
// lookahead horizon, and per-domain event totals. domains is nil when PDES
// is not enabled. Call only at a barrier.
func (s *Simulator) PDESStats() (barriers uint64, horizon Time, domains []DomainStat) {
	if s.pdes == nil || s.parent != nil {
		return 0, 0, nil
	}
	c := s.pdes
	domains = make([]DomainStat, 0, len(c.domains))
	for _, d := range c.domains {
		name := ""
		if len(d.machines) > 0 {
			name = d.machines[0].Name
		}
		domains = append(domains, DomainStat{Name: name, Events: d.eventsRun})
	}
	return c.barriers, c.lookahead, domains
}

// advanceDomains moves every domain clock forward to t (never backward).
func (s *Simulator) advanceDomains(t Time) {
	for _, d := range s.pdes.domains {
		if d.now < t {
			d.now = t
		}
	}
}

// runPDES is the coordinator loop behind RunUntil (drain=false) and Drain
// (drain=true) on a PDES control plane.
//
// Loop invariant at the top: all mailbox entries not yet flushed were
// posted by the most recent window, every domain clock equals the window
// end, and no queued event anywhere precedes a domain clock.
func (s *Simulator) runPDES(limit Time, drain bool) {
	c := s.pdes
	doms := c.domains
	horizon := c.lookahead
	if horizon <= 0 {
		horizon = maxTime // no cross-domain channel: domains are independent
	}
	workers := c.workers
	if s.tracer != nil {
		workers = 1 // the tracer is shared state; serialize domain execution
	}
	if workers > len(doms) {
		workers = len(doms)
	}
	var pool *pdesPool
	if workers > 1 {
		pool = newPDESPool(doms, workers)
		defer pool.stop()
	}
	for {
		c.flush()
		ctrlAt, hasCtrl := s.peekTime()
		next := maxTime
		for _, d := range doms {
			if t, ok := d.peekTime(); ok && t < next {
				next = t
			}
		}
		first := next
		if hasCtrl && ctrlAt < first {
			first = ctrlAt
		}
		if first == maxTime {
			break // every queue empty (mailboxes were just flushed)
		}
		if !drain && first > limit {
			break
		}
		if hasCtrl && ctrlAt <= next {
			// No domain event strictly precedes the control event: run it
			// with every clock advanced to its time. Control events execute
			// at barriers with all domains quiescent, so they may touch any
			// domain (deliver messages, kill processes, read stats). ctrlAt
			// may be the lower bound of an unopened range: the bounded step
			// then only opens it, and the loop looks again.
			s.advanceDomains(ctrlAt)
			s.stepNext(ctrlAt, true)
			continue
		}
		// Parallel window [T, W]: every domain runs its events with
		// at <= W. Cross-domain influence generated inside the window lands
		// at >= T+lookahead > W, so domains are independent within it. T
		// jumps to the earliest pending event, which skips idle stretches
		// in one barrier.
		T := next
		W := T + horizon - 1
		if W < T {
			W = maxTime // horizon overflow: unbounded window
		}
		if hasCtrl && ctrlAt-1 < W {
			W = ctrlAt - 1 // control runs before same-time domain events
		}
		if !drain && limit < W {
			W = limit
		}
		c.barriers++
		if pool != nil {
			c.inWindow.Store(true)
			pool.runWindow(W)
			c.inWindow.Store(false)
		} else {
			for _, d := range doms {
				d.RunUntil(W)
			}
		}
		if s.now < W {
			s.now = W
		}
	}
	if !drain {
		s.advanceDomains(limit)
		if s.now < limit {
			s.now = limit
		}
	}
}

// pdesPool is a window-scoped worker pool: one goroutine per worker, each
// owning a contiguous block of domains. Contiguous partitioning spreads
// load evenly when machines are created in (heavy server, light client)
// pairs. The pool lives for one RunUntil/Drain call — simulations are
// created in bulk by experiment sweeps, and per-call goroutines cannot leak.
type pdesPool struct {
	cmd  []chan Time
	done chan struct{}
}

func newPDESPool(doms []*Simulator, workers int) *pdesPool {
	p := &pdesPool{done: make(chan struct{}, workers)}
	per := (len(doms) + workers - 1) / workers
	for lo := 0; lo < len(doms); lo += per {
		hi := lo + per
		if hi > len(doms) {
			hi = len(doms)
		}
		ch := make(chan Time, 1)
		p.cmd = append(p.cmd, ch)
		go func(part []*Simulator, ch chan Time) {
			for w := range ch {
				for _, d := range part {
					d.RunUntil(w)
				}
				p.done <- struct{}{}
			}
		}(doms[lo:hi], ch)
	}
	return p
}

// runWindow advances every domain to w and waits for all of them. The
// channel hand-offs double as the happens-before edges that make
// barrier-separated accesses (mailbox lanes, stats reads) race-free.
func (p *pdesPool) runWindow(w Time) {
	for _, ch := range p.cmd {
		ch <- w
	}
	for range p.cmd {
		<-p.done
	}
}

func (p *pdesPool) stop() {
	for _, ch := range p.cmd {
		close(ch)
	}
}
