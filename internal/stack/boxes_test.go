package stack

import (
	"testing"

	"neat/internal/sim"
)

// TestConnBoxRoundTripZeroAlloc: the socket protocol's boxes come from the
// simulator's free lists, not from sync.Pools, so their round trips stay
// allocation-free even under the race detector (which drops sync.Pool Puts
// at random). An application process sends an OpSend and an OpClose; the
// stack process recycles both and answers with an EvAccepted and an
// EvClosed, which the application recycles. No byte buffer is involved: those still cycle
// through bufpool's sync.Pools, and their alloc tests skip under -race.
func TestConnBoxRoundTripZeroAlloc(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 1_000_000_000)
	var app, stk *sim.Proc
	conn := Handle{Host: 1, Slot: 2, Gen: 3}
	closed := 0
	app = sim.NewProc(m.Thread(0, 0), "app", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		switch m := msg.(type) {
		case *EvAccepted:
			m.Recycle()
		case *EvClosed:
			closed++
			m.Recycle()
		default:
			ctx.Send(stk, NewOpSend(ctx.Sim, OpSend{Conn: conn, WantSpace: true}))
			ctx.Send(stk, NewOpClose(ctx.Sim, conn, false))
		}
	}), sim.ProcConfig{})
	stk = sim.NewProc(m.Thread(1, 0), "stack", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		if op, ok := msg.(*OpSend); ok {
			op.Recycle()
			return
		}
		op := msg.(*OpClose)
		h := op.Conn
		op.Recycle()
		ctx.Send(app, NewEvAccepted(ctx.Sim, EvAccepted{Conn: h, Stack: ctx.Proc, SendBuf: 1}))
		ctx.Send(app, NewEvClosed(ctx.Sim, EvClosed{Conn: h, Reset: true}))
	}), sim.ProcConfig{})
	round := func() {
		app.Deliver(0)
		s.Drain()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Fatalf("OpSend + OpClose → EvAccepted + EvClosed round trip allocates %.1f allocs/op, want 0", allocs)
	}
	if closed != 64+501 {
		t.Fatalf("%d round trips completed, want %d", closed, 64+501)
	}
	for _, ps := range s.PoolStats() {
		if ps.Outstanding != 0 {
			t.Errorf("%s: %d boxes outstanding after the round trips", ps.Kind, ps.Outstanding)
		}
	}
}
