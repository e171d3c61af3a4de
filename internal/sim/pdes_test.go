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
