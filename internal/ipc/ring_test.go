package ipc

import (
	"testing"
	"unsafe"

	"neat/internal/sim"
)

// ringHarness is a two-process (sender on core 0, receiver on core 1)
// channel fixture. The sender forwards every inbox message over the
// connection; the receiver appends to got.
type ringHarness struct {
	s    *sim.Simulator
	conn *Conn
	src  *sim.Proc
	got  []sim.Message
}

func newRingHarness(costs Costs) *ringHarness {
	h := &ringHarness{s: sim.New(1)}
	m := sim.NewMachine(h.s, "m", 2, 1, 1_000_000_000)
	dst := sim.NewProc(m.Thread(1, 0), "dst", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		h.got = append(h.got, msg)
	}), sim.ProcConfig{})
	h.conn = New(dst, costs)
	h.src = sim.NewProc(m.Thread(0, 0), "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		if burst, ok := msg.(int); ok {
			for i := 0; i < burst; i++ {
				h.conn.Send(ctx, i)
			}
			return
		}
		h.conn.Send(ctx, msg)
	}), sim.ProcConfig{})
	return h
}

// TestIPCSendRecvZeroAlloc pins the steady-state fast path: once the ring
// owns its pooled segments and the receiver's inbox its double buffers,
// one send → deliver → receive round trip allocates nothing.
func TestIPCSendRecvZeroAlloc(t *testing.T) {
	h := newRingHarness(DefaultCosts())
	for i := 0; i < 64; i++ {
		h.src.Deliver("warm")
		h.s.Drain()
	}
	allocs := testing.AllocsPerRun(500, func() {
		h.src.Deliver("x")
		h.s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state send/recv allocates %v per round trip, want 0", allocs)
	}
}

// TestIPCBatchDrainZeroAlloc is the vector variant: a 32-message burst in
// one sender activation — pushed through the ring as in-flight slots and
// drained by the receiver as same-timestamp batches — stays allocation-free
// too. The burst wraps segment boundaries over the runs, so this also pins
// the free-list reuse (segments recycle, never reallocate).
func TestIPCBatchDrainZeroAlloc(t *testing.T) {
	costs := DefaultCosts()
	costs.CoalesceWakes = true // exercise the ride path as well
	h := newRingHarness(costs)
	for i := 0; i < 64; i++ {
		h.src.Deliver(32)
		h.s.Drain()
	}
	allocs := testing.AllocsPerRun(500, func() {
		h.src.Deliver(32)
		h.s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch drain allocates %v per burst, want 0", allocs)
	}
}

// TestIPCRingOverflowStalls pins the deterministic backpressure semantics:
// a burst overrunning the ring depth stalls the sender on the head slot, counts
// the stall on both the connection and the simulator, keeps delivery FIFO,
// and never delivers a stalled message before the slot it waited for freed.
func TestIPCRingOverflowStalls(t *testing.T) {
	costs := Costs{SendCycles: 100, FastLatency: 300, SlowLatency: 5000, ringDepth: 2}
	h := newRingHarness(costs)
	h.src.Deliver(4) // one activation, four sends, depth 2 → two stalls
	h.s.Drain()

	if got := h.conn.Stats().Stalls; got != 2 {
		t.Fatalf("conn stalls = %d, want 2", got)
	}
	if got := h.s.IPCStats().Stalls; got != 2 {
		t.Fatalf("sim.ipc.stalls = %d, want 2", got)
	}
	if len(h.got) != 4 {
		t.Fatalf("received %d messages, want 4", len(h.got))
	}
	for i, m := range h.got {
		if m.(int) != i {
			t.Fatalf("FIFO violated: got %v", h.got)
		}
	}
	// The stalled sends waited: their extra delay is the head deadline
	// (300) on top of their own latency, so the run takes strictly longer
	// than four unstalled sends (4×100 cycles + 300 < end).
	if end := h.s.Now(); end < 1000 {
		t.Fatalf("drain finished at %v; stalled sends should have waited past 1000", end)
	}

	// Determinism regression: an identical run reproduces the schedule.
	h2 := newRingHarness(costs)
	h2.src.Deliver(4)
	h2.s.Drain()
	if h2.s.Now() != h.s.Now() || len(h2.got) != len(h.got) {
		t.Fatalf("overflow schedule not reproducible: %v/%d vs %v/%d",
			h2.s.Now(), len(h2.got), h.s.Now(), len(h.got))
	}
}

// TestIPCInjectOrdering pins Inject's contract: an injected message lands
// in the peer's inbox immediately, ahead of every in-flight ring message
// (those are still in transit and deliver at their deadlines).
func TestIPCInjectOrdering(t *testing.T) {
	h := newRingHarness(Costs{SendCycles: 100, FastLatency: 300, SlowLatency: 5000})
	h.src.Deliver(3) // in-flight ring batch, deliveries at t≈400..600
	h.s.After(50, func() { h.conn.Inject("mgmt") })
	h.s.Drain()

	if len(h.got) != 4 {
		t.Fatalf("received %d messages, want 4: %v", len(h.got), h.got)
	}
	if h.got[0] != "mgmt" {
		t.Fatalf("injected message did not overtake the in-flight ring batch: %v", h.got)
	}
	for i := 1; i < 4; i++ {
		if h.got[i].(int) != i-1 {
			t.Fatalf("ring batch order violated after inject: %v", h.got)
		}
	}
	if h.conn.Stats().Sent != 4 {
		t.Fatalf("inject not accounted on the channel: %+v", h.conn.Stats())
	}
}

// TestIPCCoalescedRideFIFO pins the wake-coalescing model: a send finding
// the ring armed skips its doorbell (counted on connection and simulator),
// shares the predecessor's delivery window, and never overtakes it — on the
// colocated slow path just as on the fast path.
func TestIPCCoalescedRideFIFO(t *testing.T) {
	for _, tc := range []struct {
		name      string
		colocated bool
	}{{"fast", false}, {"colocated", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			m := sim.NewMachine(s, "m", 2, 1, 1_000_000_000)
			srcTh := m.Thread(0, 0)
			dstTh := m.Thread(1, 0)
			if tc.colocated {
				dstTh = srcTh
			}
			var got []sim.Message
			var at []sim.Time
			dst := sim.NewProc(dstTh, "dst", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
				got = append(got, msg)
				at = append(at, s.Now())
			}), sim.ProcConfig{})
			costs := Costs{SendCycles: 200, FastLatency: 300, SlowLatency: 5000,
				Tuning: Tuning{CoalesceWakes: true}}
			conn := New(dst, costs)
			src := sim.NewProc(srcTh, "src", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
				conn.Send(ctx, 0)
				conn.Send(ctx, 1) // ring armed: rides, no doorbell
			}), sim.ProcConfig{})
			src.Deliver("go")
			s.Drain()

			if len(got) != 2 || got[0].(int) != 0 || got[1].(int) != 1 {
				t.Fatalf("order violated: %v", got)
			}
			if at[1] < at[0] {
				t.Fatalf("rider delivered before its predecessor: %v", at)
			}
			st := conn.Stats()
			if st.WakesSaved != 1 {
				t.Fatalf("wakes saved = %d, want 1 (stats %+v)", st.WakesSaved, st)
			}
			if s.IPCStats().WakesSaved != 1 {
				t.Fatalf("sim.ipc.wakes_saved = %d, want 1", s.IPCStats().WakesSaved)
			}
			wantSlow := uint64(0)
			if tc.colocated {
				wantSlow = 2
			}
			if st.SlowPath != wantSlow {
				t.Fatalf("slow path = %d, want %d", st.SlowPath, wantSlow)
			}
		})
	}
}

// TestIPCDepthHighWater pins the occupancy instrumentation: the high-water
// mark reflects the deepest in-flight burst, on the connection and the
// simulator alike, and the ring occupancy drains as simulated time passes deadlines.
func TestIPCDepthHighWater(t *testing.T) {
	h := newRingHarness(DefaultCosts())
	h.src.Deliver(8)
	h.s.Drain()
	if hw := h.conn.Stats().DepthHW; hw != 8 {
		t.Fatalf("conn depth high-water = %d, want 8", hw)
	}
	if hw := h.s.IPCStats().DepthHW; hw != 8 {
		t.Fatalf("sim.ipc.depth_hw = %d, want 8", hw)
	}
	if n := h.conn.ring.n; n != 8 {
		// Drain ran past every deadline, but retirement is lazy (popped on
		// the next send); the ring reports the modeled occupancy as-is.
		t.Logf("in-flight after drain: %d", n)
	}
	h.src.Deliver("late") // expires the 8 passed deadlines, pushes 1
	h.s.Drain()
	if n := h.conn.ring.n; n != 1 {
		t.Fatalf("in-flight after expiry = %d, want 1", n)
	}
}

// TestIPCRingFootprint gates what an idle channel keeps. A ring holds its
// segments for good, and there is one ring per direction, component pair
// and replica, so the segment is sized to occupancy (see ringSegSlots): a
// ring drained after a burst of up to 16 sends keeps exactly one segment, of
// at most 160 bytes.
func TestIPCRingFootprint(t *testing.T) {
	if n := unsafe.Sizeof(ringSeg{}); n > 160 {
		t.Fatalf("a ring segment is %d bytes, budget 160", n)
	}
	for burst := 1; burst <= 16; burst++ {
		h := newRingHarness(DefaultCosts())
		h.src.Deliver(burst)
		h.s.Drain()
		r := &h.conn.ring
		r.retire(h.s.Now())
		if r.n != 0 {
			t.Fatalf("burst %d: %d slots in flight after the drain", burst, r.n)
		}
		segs := 0
		for s := r.head; s != nil; s = s.next {
			segs++
		}
		for s := r.free; s != nil; s = s.next {
			segs++
		}
		if segs != 1 {
			t.Fatalf("burst %d: the drained ring keeps %d segments, want 1", burst, segs)
		}
	}
}
