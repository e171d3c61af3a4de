package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// pdesPair builds a control-plane simulator with PDES enabled and two
// one-core machines (two domains).
func pdesPair(workers int) (*Simulator, *Machine, *Machine) {
	s := New(1)
	s.EnablePDES(workers)
	a := NewMachine(s, "a", 1, 1, 1_000_000_000)
	b := NewMachine(s, "b", 1, 1, 1_000_000_000)
	return s, a, b
}

func TestPDESMachinesGetOwnDomains(t *testing.T) {
	s, a, b := pdesPair(2)
	if a.Sim() == s || b.Sim() == s || a.Sim() == b.Sim() {
		t.Fatal("PDES machines must each live in their own domain shard")
	}
	if s.pdes == nil || s.parent != nil {
		t.Fatal("PDES not enabled on the control plane")
	}
	if d := a.Sim(); d.pdes != nil && d.parent == nil {
		t.Fatal("a domain shard claims to be the PDES control plane")
	}
}

func TestPDESDomainEventsAndClocks(t *testing.T) {
	s, a, b := pdesPair(2)
	var ranA, ranB Time
	a.Sim().At(10*Microsecond, func() { ranA = a.Sim().Now() })
	b.Sim().At(20*Microsecond, func() { ranB = b.Sim().Now() })
	s.RunUntil(Millisecond)
	if ranA != 10*Microsecond || ranB != 20*Microsecond {
		t.Fatalf("domain events ran at %v/%v, want 10µs/20µs", ranA, ranB)
	}
	if s.Now() != Millisecond || a.Sim().Now() != Millisecond || b.Sim().Now() != Millisecond {
		t.Fatalf("clocks = %v/%v/%v, want all at 1ms", s.Now(), a.Sim().Now(), b.Sim().Now())
	}
	if s.EventsRun() != 2 {
		t.Fatalf("EventsRun = %d, want 2 (summed across domains)", s.EventsRun())
	}
}

// TestPDESControlRunsAtBarrier pins the barrier protocol: a control-plane
// event splits windows, runs with every domain clock advanced to its time,
// and precedes same-time domain events.
func TestPDESControlRunsAtBarrier(t *testing.T) {
	s, a, b := pdesPair(1)
	s.RegisterLookahead(Microsecond)
	var order []string
	a.Sim().At(10*Microsecond, func() { order = append(order, "a@10") })
	s.At(20*Microsecond, func() {
		if got := b.Sim().Now(); got != 20*Microsecond {
			t.Errorf("domain clock at control time = %v, want 20µs", got)
		}
		order = append(order, "ctrl@20")
	})
	b.Sim().At(20*Microsecond, func() { order = append(order, "b@20") })
	a.Sim().At(30*Microsecond, func() { order = append(order, "a@30") })
	s.RunUntil(Millisecond)
	want := "[a@10 ctrl@20 b@20 a@30]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	barriers, horizon, doms := s.PDESStats()
	if barriers == 0 || horizon != Microsecond || len(doms) != 2 {
		t.Fatalf("PDESStats = %d barriers, %v horizon, %d domains", barriers, horizon, len(doms))
	}
}

// TestPDESFarControlEventWaitsForDomains: a control event beyond the L0
// horizon waits in an unopened range, so the coordinator first sees only
// a lower bound on its time. Stepping the control plane must not run it
// ahead of domain events that precede it.
func TestPDESFarControlEventWaitsForDomains(t *testing.T) {
	s, a, _ := pdesPair(1)
	s.RegisterLookahead(Microsecond)
	var order []string
	s.At(10*Millisecond, func() {
		if got := a.Sim().Now(); got != 10*Millisecond {
			t.Errorf("domain clock at control time = %v, want 10ms", got)
		}
		order = append(order, "ctrl@10")
	})
	a.Sim().At(6*Millisecond, func() { order = append(order, "a@6") })
	a.Sim().At(9*Millisecond, func() { order = append(order, "a@9") })
	a.Sim().At(11*Millisecond, func() { order = append(order, "a@11") })
	s.RunUntil(20 * Millisecond)
	if got, want := fmt.Sprint(order), "[a@6 a@9 ctrl@10 a@11]"; got != want {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestPDESBarrierFlushDelivery models a cross-domain channel by hand: a
// mailbox written by domain a's events and flushed into domain b at
// barriers, with the registered lookahead keeping the delivery outside the
// sending window.
func TestPDESBarrierFlushDelivery(t *testing.T) {
	const la = 5 * Microsecond
	for _, workers := range []int{1, 2} {
		s, a, b := pdesPair(workers)
		s.RegisterLookahead(la)
		type entry struct {
			at  Time
			val int
		}
		var mbox []entry
		var got []entry
		s.RegisterBarrierFlush(func() {
			for _, e := range mbox {
				e := e
				b.Sim().At(e.at, func() { got = append(got, entry{b.Sim().Now(), e.val}) })
			}
			mbox = mbox[:0]
		})
		for i := 0; i < 5; i++ {
			i := i
			at := Time(i+1) * 7 * Microsecond
			a.Sim().At(at, func() {
				mbox = append(mbox, entry{at: a.Sim().Now() + la, val: i})
			})
		}
		s.RunUntil(Millisecond)
		if len(got) != 5 {
			t.Fatalf("workers=%d: delivered %d cross-domain messages, want 5", workers, len(got))
		}
		for i, e := range got {
			if e.val != i || e.at != Time(i+1)*7*Microsecond+la {
				t.Fatalf("workers=%d: delivery %d = %+v", workers, i, e)
			}
		}
	}
}

// TestPDESWorkerCountInvariance runs an RNG-consuming workload per domain
// and checks the draws are identical under 1 and 2 workers: domain streams
// are seeded at machine creation, never by execution interleaving.
func TestPDESWorkerCountInvariance(t *testing.T) {
	run := func(workers int) string {
		s := New(99)
		s.EnablePDES(workers)
		machines := make([]*Machine, 4)
		for i := range machines {
			machines[i] = NewMachine(s, fmt.Sprintf("m%d", i), 1, 1, 1_000_000_000)
		}
		draws := make([][]int64, len(machines))
		var mu sync.Mutex
		for i, m := range machines {
			i, m := i, m
			for k := 0; k < 8; k++ {
				m.Sim().At(Time(k+1)*Microsecond, func() {
					v := m.Sim().Rand().Int63()
					mu.Lock()
					draws[i] = append(draws[i], v)
					mu.Unlock()
				})
			}
		}
		s.RunUntil(Millisecond)
		return fmt.Sprint(draws)
	}
	if a, b := run(1), run(2); a != b {
		t.Fatalf("per-domain RNG draws differ across worker counts:\n%s\nvs\n%s", a, b)
	}
}

func TestPDESIdleJumpSkipsGaps(t *testing.T) {
	s, a, _ := pdesPair(1)
	s.RegisterLookahead(Microsecond)
	// Two events a full second apart: the window start jumps to the second
	// event instead of crawling there one lookahead at a time.
	a.Sim().At(Microsecond, func() {})
	a.Sim().At(Second, func() {})
	s.RunUntil(2 * Second)
	barriers, _, _ := s.PDESStats()
	if barriers > 10 {
		t.Fatalf("%d barriers for two events: idle jump is not working", barriers)
	}
}

func TestPDESDrain(t *testing.T) {
	s, a, b := pdesPair(2)
	// With no registered lookahead the two domains share one unbounded
	// window, so their events run on concurrent workers: count atomically.
	var ran atomic.Int32
	a.Sim().At(Microsecond, func() { ran.Add(1) })
	b.Sim().At(2*Second, func() { ran.Add(1) })
	if s.Idle() {
		t.Fatal("Idle with domain events pending")
	}
	s.Drain()
	if ran.Load() != 2 {
		t.Fatalf("Drain ran %d events, want 2", ran.Load())
	}
	if !s.Idle() {
		t.Fatal("not Idle after Drain")
	}
}

// TestPDESPoolsDrainAcrossDomains: a control plane's PoolStats totals the
// free lists of every domain. Two machines, each its own domain, pass a hop
// count back and forth through a barrier-flushed mailbox. On every hop the
// receiving process sends a two-message delivery vector and a heartbeat to
// a local peer and arms a timer, whose firing passes the hop on. After
// Drain every kind is back to zero; a heartbeat box one domain then keeps
// shows up in the control plane's total.
func TestPDESPoolsDrainAcrossDomains(t *testing.T) {
	const la = 5 * Microsecond
	s := New(1)
	s.EnablePDES(2)
	s.RegisterLookahead(la)
	type fire struct{ hops int }
	type leak struct{}
	type post struct {
		at   Time
		hops int
	}
	var nodes [2]*Proc
	var outbox [2][]post // outbox[i] is written only by domain i's events
	var hopsSeen [2]int
	for i, name := range []string{"a", "b"} {
		i := i
		m := NewMachine(s, name, 2, 1, 1_000_000_000)
		peer := NewProc(m.Thread(1, 0), name+".peer", HandlerFunc(func(*Context, Message) {}), ProcConfig{})
		nodes[i] = NewProc(m.Thread(0, 0), name+".node", HandlerFunc(func(ctx *Context, msg Message) {
			switch msg := msg.(type) {
			case int:
				hopsSeen[i]++
				ctx.Send(peer, 1)
				ctx.Send(peer, 2)
				ctx.Send(peer, ctx.NewHeartbeat(uint64(msg), nil))
				ctx.TimerAfter(2*Microsecond, fire{msg})
			case fire:
				if msg.hops > 0 {
					outbox[i] = append(outbox[i], post{ctx.Sim.Now() + la, msg.hops - 1})
				}
			case *HeartbeatPing:
				msg.Recycle()
			case leak:
				ctx.NewHeartbeat(0, nil)
			}
		}), ProcConfig{})
	}
	s.RegisterBarrierFlush(func() {
		for i := range outbox {
			dst := nodes[1-i]
			for _, p := range outbox[i] {
				p := p
				dst.Sim().At(p.at, func() { dst.Deliver(p.hops) })
			}
			outbox[i] = outbox[i][:0]
		}
	})
	nodes[0].Sim().At(0, func() { nodes[0].Deliver(10) })
	nodes[1].Sim().At(0, func() { nodes[1].Deliver(10) })
	s.Drain()

	// Two chains of 11 hops (10 down to 0), one starting in each domain,
	// alternate between the domains: 6 + 5 hops land in each.
	if hopsSeen != [2]int{11, 11} {
		t.Fatalf("hops seen per domain = %v, want 11 each", hopsSeen)
	}
	outstanding := func() map[string]int64 {
		out := map[string]int64{}
		for _, ps := range s.PoolStats() {
			out[ps.Kind] = ps.Outstanding
		}
		return out
	}
	got := outstanding()
	for _, kind := range []string{"batch", "timer_fire", "heartbeat"} {
		n, ok := got[kind]
		if !ok {
			t.Fatalf("kind %s missing from PoolStats %v", kind, got)
		}
		if n != 0 {
			t.Errorf("%s: %d boxes outstanding after Drain", kind, n)
		}
	}

	nodes[0].Sim().At(s.Now()+Microsecond, func() { nodes[0].Deliver(leak{}) })
	s.Drain()
	if n := outstanding()["heartbeat"]; n != 1 {
		t.Fatalf("a box kept in domain a counts %d on the control plane, want 1", n)
	}
}

func TestPDESLookaheadRegistration(t *testing.T) {
	s, _, _ := pdesPair(1)
	s.RegisterLookahead(5 * Microsecond)
	s.RegisterLookahead(2 * Microsecond) // minimum wins
	s.RegisterLookahead(3 * Microsecond) // ignored: larger than current min
	if _, horizon, _ := s.PDESStats(); horizon != 2*Microsecond {
		t.Fatalf("horizon = %v, want 2µs", horizon)
	}
	s.RegisterLookahead(0) // clamped to 1ns, never 0 (a 0 horizon deadlocks)
	if _, horizon, _ := s.PDESStats(); horizon != Nanosecond {
		t.Fatalf("horizon after 0 registration = %v, want 1ns", horizon)
	}
}

func TestPDESGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := New(1)
	NewMachine(s, "m", 1, 1, 1_000_000_000)
	expectPanic("EnablePDES after machines", func() { s.EnablePDES(2) })

	s2, a, _ := pdesPair(2)
	expectPanic("EnablePDES twice", func() { s2.EnablePDES(2) })
	expectPanic("Step on PDES control plane", func() { s2.Step() })
	expectPanic("NewMachine on a shard", func() {
		NewMachine(a.Sim(), "nested", 1, 1, 1_000_000_000)
	})
}

// TestPDESStatsOffMode: the sequential mode reports no PDES stats, so
// metric emission stays byte-identical to pre-PDES builds.
func TestPDESStatsOffMode(t *testing.T) {
	s := New(1)
	if _, _, doms := s.PDESStats(); doms != nil {
		t.Fatal("PDESStats reported domains without EnablePDES")
	}
	s.RegisterLookahead(Microsecond)  // no-op, must not panic
	s.RegisterBarrierFlush(func() {}) // no-op, must not panic
}
