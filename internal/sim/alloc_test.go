package sim

import "testing"

// These tests guard the observability layer's overhead contract:
//
//   - the event-scheduling path stays allocation-free (closure-free
//     event kinds on pooled wheel nodes: 0 allocs/op);
//   - the deliver → dispatch cycle is allocation-free with no tracer
//     installed (the Context is hoisted into the Proc, so the Handler
//     interface escape costs nothing) — the arrival-stamp machinery must
//     never be touched on the untraced path;
//   - installing a tracer adds zero steady-state allocations (stamps
//     recycle like the inbox double-buffers, spans are keyed by process).

func TestScheduleZeroAlloc(t *testing.T) {
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < 64; i++ {
		s.AtEvent(s.Now()+Time(i%8)*Microsecond, sink, 1)
		s.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		s.AtEvent(s.Now()+Microsecond, sink, 1)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step allocates %.1f allocs/op, want 0", allocs)
	}
}

// dispatchAllocs measures steady-state allocations of one deliver → drain
// cycle on a fresh one-proc simulator, optionally traced.
func dispatchAllocs(traced bool) float64 {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(100)
	}), ProcConfig{})
	if traced {
		s.SetTracer(countingTracer{n: new(int)})
	}
	// Warm up: let the inbox double-buffers (and stamp slices, if traced)
	// reach steady-state capacity.
	for i := 0; i < 64; i++ {
		p.Deliver("x")
		s.Drain()
	}
	return testing.AllocsPerRun(500, func() {
		p.Deliver("x")
		s.Drain()
	})
}

func TestUntracedDispatchAllocBudget(t *testing.T) {
	// The deliver → dispatch cycle must not allocate in steady state: the
	// Context lives in the Proc, the inbox double-buffers recycle, and timer
	// boxes come from the simulator freelist. Anything above zero means an
	// allocation leaked onto the untraced hot path.
	if allocs := dispatchAllocs(false); allocs != 0 {
		t.Fatalf("untraced dispatch allocates %.1f allocs/op, budget is 0", allocs)
	}
}

// TestBatchedDeliveryZeroAlloc guards the batched fan-out path: a handler
// that emits a burst of sends to one destination at one release time must
// coalesce them into a single pooled batch event, and the whole
// burst-deliver → batch-dispatch cycle must be allocation-free in steady
// state with tracing off.
func TestBatchedDeliveryZeroAlloc(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 2, 1_000_000_000)
	sink := NewProc(m.Thread(0, 0), "sink", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
	}), ProcConfig{})
	src := NewProc(m.Thread(0, 1), "src", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(50)
		for i := 0; i < 16; i++ {
			ctx.Send(sink, "frame") // one burst, one release time → one batch
		}
	}), ProcConfig{})
	for i := 0; i < 64; i++ {
		src.Deliver("kick")
		s.Drain()
	}
	events := s.EventsRun()
	allocs := testing.AllocsPerRun(200, func() {
		src.Deliver("kick")
		s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("batched burst delivery allocates %.1f allocs/op, budget is 0", allocs)
	}
	// The burst must actually have been batched: 16 messages still count as
	// 16 events (EventsRun is grouping-independent), and the sink must have
	// received every message.
	src.Deliver("kick")
	s.Drain()
	if got := s.EventsRun() - events; got < 17*201 {
		t.Fatalf("EventsRun advanced by %d across 201 bursts, want >= %d (batches must count as N events)", got, 17*201)
	}
	if got := sink.Stats().Messages; got < 16*266 {
		t.Fatalf("sink handled %d messages, want >= %d", got, 16*266)
	}
}

func TestTracedDispatchNoExtraAllocs(t *testing.T) {
	un, tr := dispatchAllocs(false), dispatchAllocs(true)
	if tr > un {
		t.Fatalf("tracing adds allocations in steady state: traced %.1f vs untraced %.1f allocs/op", tr, un)
	}
}

type countingTracer struct{ n *int }

func (c countingTracer) OnMessage(p *Proc, msg Message, arrivedAt, start, end Time) { *c.n++ }
func (c countingTracer) OnSpan(hop string, queued, processed Time)                  { *c.n++ }

// TestHeartbeatRoundTripZeroAlloc: a probe round — the prober boxes a ping,
// the target's dispatch loop turns the box around as the ack, the prober
// recycles it — allocates nothing in steady state, so supervision costs the
// garbage collector nothing however many processes are watched.
func TestHeartbeatRoundTripZeroAlloc(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 2, 1, 1_000_000_000)
	var target *Proc
	acked := 0
	prober := NewProc(m.Thread(0, 0), "wd", HandlerFunc(func(ctx *Context, msg Message) {
		switch hb := msg.(type) {
		case *HeartbeatPing:
			acked++
			hb.Recycle()
		default:
			ctx.Send(target, ctx.NewHeartbeat(uint64(acked), nil))
		}
	}), ProcConfig{})
	target = NewProc(m.Thread(1, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		t.Error("heartbeat reached the target's handler")
	}), ProcConfig{})
	round := func() {
		prober.Deliver(0)
		s.Drain()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Fatalf("heartbeat round trip allocates %.1f allocs/op, want 0", allocs)
	}
	if acked != 64+501 {
		t.Fatalf("acks = %d, want %d", acked, 64+501)
	}
	if got := s.beats.stat().Outstanding; got != 0 {
		t.Fatalf("heartbeat boxes outstanding = %d, want 0", got)
	}
}
