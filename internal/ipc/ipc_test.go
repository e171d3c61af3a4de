package ipc

import (
	"testing"

	"neat/internal/sim"
)

func TestFastPathLatency(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 1_000_000_000)
	var recvAt sim.Time
	dst := sim.NewProc(m.Thread(1, 0), "dst", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		recvAt = s.Now()
	}), sim.ProcConfig{})
	conn := New(dst, Costs{SendCycles: 100, FastLatency: 300, SlowLatency: 5000})
	src := sim.NewProc(m.Thread(0, 0), "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		conn.Send(ctx, "hi")
	}), sim.ProcConfig{})
	src.Deliver("go")
	s.Drain()
	// Sender dispatch: 100 cycles = 100ns, then 300ns fast wake.
	if recvAt != 400 {
		t.Fatalf("recvAt=%v, want 400", recvAt)
	}
	st := conn.Stats()
	if st.Sent != 1 || st.SlowPath != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSlowPathWhenColocated(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1, 1, 1_000_000_000)
	th := m.Thread(0, 0)
	var recvAt sim.Time
	dst := sim.NewProc(th, "dst", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		recvAt = s.Now()
	}), sim.ProcConfig{})
	conn := New(dst, Costs{SendCycles: 100, FastLatency: 300, SlowLatency: 5000})
	src := sim.NewProc(th, "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		conn.Send(ctx, "hi")
	}), sim.ProcConfig{})
	src.Deliver("go")
	s.Drain()
	if recvAt != 5100 {
		t.Fatalf("recvAt=%v, want 5100 (slow path)", recvAt)
	}
	if conn.Stats().SlowPath != 1 {
		t.Fatalf("slow path not counted: %+v", conn.Stats())
	}
}

func TestRebindAfterCrash(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 3, 1, 1_000_000_000)
	var got []string
	mk := func(th *sim.HWThread, name string) *sim.Proc {
		return sim.NewProc(th, name, sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
			got = append(got, name+":"+msg.(string))
		}), sim.ProcConfig{})
	}
	old := mk(m.Thread(1, 0), "old")
	conn := New(old, DefaultCosts())
	src := sim.NewProc(m.Thread(0, 0), "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		conn.Send(ctx, msg.(string))
	}), sim.ProcConfig{})

	src.Deliver("one")
	s.Drain()
	old.Crash(sim.ErrKilled)
	replacement := mk(m.Thread(2, 0), "new")
	conn.Rebind(replacement)
	src.Deliver("two")
	s.Drain()
	if len(got) != 2 || got[0] != "old:one" || got[1] != "new:two" {
		t.Fatalf("got %v", got)
	}
	if conn.peer != replacement {
		t.Fatal("peer not rebound")
	}
}

func TestNilPeerDropsSilently(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1, 1, 1_000_000_000)
	conn := New(nil, DefaultCosts())
	src := sim.NewProc(m.Thread(0, 0), "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		conn.Send(ctx, "x")
	}), sim.ProcConfig{})
	src.Deliver("go")
	s.Drain() // must not panic
	if conn.Stats().Sent != 0 {
		t.Fatalf("sent on nil peer: %+v", conn.Stats())
	}
}

// Stats returns a snapshot of the counters.
func (c *Conn) Stats() Stats { return c.stats }
