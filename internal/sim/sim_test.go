package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, v)
		}
	}
}

func TestHeapPropertySorted(t *testing.T) {
	// Property: any set of scheduled times is executed in nondecreasing order.
	f := func(times []int16) bool {
		s := New(2)
		var ran []Time
		for _, ti := range times {
			at := Time(int64(ti) + 40000) // keep nonnegative
			s.At(at, func() { ran = append(ran, s.Now()) })
		}
		s.Drain()
		return sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(100, func() { ran++ })
	s.At(200, func() { ran++ })
	s.RunUntil(150)
	if ran != 1 {
		t.Fatalf("ran=%d, want 1", ran)
	}
	if s.Now() != 150 {
		t.Fatalf("now=%v, want 150", s.Now())
	}
	s.RunUntil(300)
	if ran != 2 {
		t.Fatalf("ran=%d, want 2", ran)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		s.At(50, func() {
			if s.Now() != 100 {
				t.Errorf("past event ran at %v, want clamped to 100", s.Now())
			}
		})
	})
	s.Drain()
}

func TestMachineCycles(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "amd", 12, 1, 1_900_000_000)
	if m.NumCores() != 12 {
		t.Fatalf("cores=%d", m.NumCores())
	}
	// 1.9e9 cycles at 1.9 GHz is one second.
	if d := m.Cycles(1_900_000_000); d != Second {
		t.Fatalf("Cycles = %v, want 1s", d)
	}
	if got := len(m.Threads()); got != 12 {
		t.Fatalf("threads=%d, want 12", got)
	}
}

func TestProcChargesAdvanceThread(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000) // 1 GHz: 1 cycle = 1 ns
	var handled int
	p := NewProc(m.Thread(0, 0), "worker", HandlerFunc(func(ctx *Context, msg Message) {
		handled++
		ctx.Charge(1000)
	}), ProcConfig{})
	p.Deliver("job")
	s.Drain()
	if handled != 1 {
		t.Fatalf("handled=%d", handled)
	}
	if p.Thread().BusyTotal() != 1000 {
		t.Fatalf("busy=%v, want 1000ns", p.Thread().BusyTotal())
	}
	if p.Stats().TotalCharged != 1000 {
		t.Fatalf("charged=%d", p.Stats().TotalCharged)
	}
}

func TestProcSerializesDispatches(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var starts []Time
	p := NewProc(m.Thread(0, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(100)
	}), ProcConfig{})
	// Deliver 3 messages at distinct times while the proc is busy.
	s.At(0, func() { p.Deliver(1); starts = append(starts, s.Now()) })
	s.At(10, func() { p.Deliver(2) })
	s.At(20, func() { p.Deliver(3) })
	s.Drain()
	// msg1 runs 0-100; msgs 2,3 arrive during it and run 100-300 in one or
	// two batched dispatches; total busy must be 300ns.
	if p.Thread().BusyTotal() != 300 {
		t.Fatalf("busy=%v, want 300", p.Thread().BusyTotal())
	}
	if p.Stats().Messages != 3 {
		t.Fatalf("messages=%d", p.Stats().Messages)
	}
}

func TestSendReleasedAtDispatchEnd(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 2, 1, 1_000_000_000)
	var recvAt Time
	dst := NewProc(m.Thread(1, 0), "dst", HandlerFunc(func(ctx *Context, msg Message) {
		recvAt = s.Now()
	}), ProcConfig{})
	src := NewProc(m.Thread(0, 0), "src", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(500)
		ctx.Send(dst, "hi")
	}), ProcConfig{})
	src.Deliver("go")
	s.Drain()
	if recvAt != 500 {
		t.Fatalf("message received at %v, want 500 (end of sender dispatch)", recvAt)
	}
}

func TestHyperthreadPenalty(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "xeon", 1, 2, 1_000_000_000)
	m.HTPenalty = 2.0
	busy := func(th *HWThread, name string) *Proc {
		return NewProc(th, name, HandlerFunc(func(ctx *Context, msg Message) {
			ctx.Charge(1000)
		}), ProcConfig{})
	}
	a := busy(m.Thread(0, 0), "a")
	b := busy(m.Thread(0, 1), "b")
	a.Deliver("x")
	s.RunUntil(1) // a starts at 0 with idle sibling: runs 1000ns unpenalized
	b.Deliver("y")
	s.Drain()
	// b started while a was busy: 1000 cycles * 2.0 = 2000ns.
	if got := b.Thread().BusyTotal(); got != 2000 {
		t.Fatalf("sibling-penalized busy=%v, want 2000", got)
	}
	if got := a.Thread().BusyTotal(); got != 1000 {
		t.Fatalf("unpenalized busy=%v, want 1000", got)
	}
}

func TestCrashDropsMessagesAndNotifies(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var crashes int
	s.OnCrash(func(p *Proc, cause error) { crashes++ })
	p := NewProc(m.Thread(0, 0), "victim", HandlerFunc(func(ctx *Context, msg Message) {}), ProcConfig{})
	p.Kill()
	if !p.Dead() {
		t.Fatal("proc not dead after Kill")
	}
	if crashes != 1 {
		t.Fatalf("crash notifications=%d", crashes)
	}
	p.Deliver("late")
	s.Drain()
	if p.Stats().Dropped != 1 {
		t.Fatalf("dropped=%d, want 1", p.Stats().Dropped)
	}
	if p.CrashCause() != ErrKilled {
		t.Fatalf("cause=%v", p.CrashCause())
	}
	// Killing twice is a no-op.
	p.Kill()
	if crashes != 1 {
		t.Fatalf("double-kill notified twice")
	}
}

func TestTimerFireAndCancel(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var fired []string
	var cancel *Timer
	p := NewProc(m.Thread(0, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		switch v := msg.(type) {
		case string:
			switch v {
			case "arm":
				ctx.TimerAfter(100, "t1")
				cancel = ctx.TimerAfter(200, "t2")
			case "t1", "t2":
				fired = append(fired, v)
			}
		}
	}), ProcConfig{})
	p.Deliver("arm")
	s.RunUntil(150)
	cancel.Stop()
	s.Drain()
	if len(fired) != 1 || fired[0] != "t1" {
		t.Fatalf("fired=%v, want [t1]", fired)
	}
	if cancel.Fired() {
		t.Fatal("cancelled timer reported fired")
	}
}

func TestWakeAndHaltKernelCost(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	p := NewProc(m.Thread(0, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(100)
	}), ProcConfig{WakeCycles: 50, HaltCycles: 30})
	p.Deliver("x")
	s.Drain()
	st := p.Stats()
	if st.CyclesByCat[CostKernel] != 80 {
		t.Fatalf("kernel cycles=%d, want 80", st.CyclesByCat[CostKernel])
	}
	if st.CyclesByCat[CostProcessing] != 100 {
		t.Fatalf("processing cycles=%d, want 100", st.CyclesByCat[CostProcessing])
	}
	if st.Halts != 1 {
		t.Fatalf("halts=%d", st.Halts)
	}
	// Thread busy = wake 50 + work 100 + halt 30.
	if got := p.Thread().BusyTotal(); got != 180 {
		t.Fatalf("busy=%v, want 180", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) (Time, uint64, uint64) {
		s := New(seed)
		m := NewMachine(s, "m", 2, 1, 1_000_000_000)
		rng := rand.New(rand.NewSource(7))
		var pa, pb *Proc
		pa = NewProc(m.Thread(0, 0), "a", HandlerFunc(func(ctx *Context, msg Message) {
			ctx.Charge(int64(rng.Intn(500) + 1))
			if n := msg.(int); n > 0 {
				ctx.Send(pb, n-1)
			}
		}), ProcConfig{})
		pb = NewProc(m.Thread(1, 0), "b", HandlerFunc(func(ctx *Context, msg Message) {
			ctx.Charge(int64(rng.Intn(500) + 1))
			if n := msg.(int); n > 0 {
				ctx.Send(pa, n-1)
			}
		}), ProcConfig{})
		pa.Deliver(200)
		s.Drain()
		return s.Now(), s.EventsRun(), pa.Stats().Messages + pb.Stats().Messages
	}
	t1, e1, m1 := run(42)
	t2, e2, m2 := run(42)
	if t1 != t2 || e1 != e2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, e1, m1, t2, e2, m2)
	}
	if m1 != 201 {
		t.Fatalf("ping-pong message count=%d, want 201", m1)
	}
}

func TestASLRSeedDiffersAcrossIncarnations(t *testing.T) {
	s := New(99)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	h := HandlerFunc(func(ctx *Context, msg Message) {})
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		p := NewProc(m.Thread(0, 0), "replica", h, ProcConfig{})
		if seen[p.ASLRSeed] {
			t.Fatalf("duplicate ASLR seed on incarnation %d", i)
		}
		seen[p.ASLRSeed] = true
		p.Kill()
	}
}

func TestUtilizationHelper(t *testing.T) {
	if u := Utilization(0, 500, 0, 1000); u != 0.5 {
		t.Fatalf("u=%v", u)
	}
	if u := Utilization(0, 2000, 0, 1000); u != 1.0 {
		t.Fatalf("clamped u=%v", u)
	}
	if u := Utilization(0, 10, 10, 10); u != 0 {
		t.Fatalf("empty window u=%v", u)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		1500:            "1.500µs",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String()=%q, want %q", int64(in), got, want)
		}
	}
}

func TestHangStopsDrainingButStaysAlive(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	handled := 0
	p := NewProc(m.Thread(0, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		handled++
	}), ProcConfig{})
	p.Deliver("a")
	s.Drain()
	if handled != 1 {
		t.Fatalf("handled=%d", handled)
	}
	p.Hang()
	if p.Dead() || !p.Hung() {
		t.Fatalf("hang state: dead=%v hung=%v", p.Dead(), p.Hung())
	}
	if p.FailedAt() != s.Now() {
		t.Fatalf("FailedAt=%v, want %v", p.FailedAt(), s.Now())
	}
	for i := 0; i < 5; i++ {
		p.Deliver(i)
	}
	s.RunFor(Millisecond)
	if handled != 1 {
		t.Fatalf("hung process handled messages: %d", handled)
	}
	// Deliveries are accepted (not dropped): the inbox piles up.
	if p.QueueLen() != 5 {
		t.Fatalf("queue=%d, want 5", p.QueueLen())
	}
	if p.Stats().Dropped != 0 {
		t.Fatalf("dropped=%d", p.Stats().Dropped)
	}
}

func TestHeartbeatAnsweredOnlyWhenDraining(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 2, 1, 1_000_000_000)
	var acks []HeartbeatAck
	wd := NewProc(m.Thread(0, 0), "wd", HandlerFunc(func(ctx *Context, msg Message) {
		if a, ok := msg.(HeartbeatAck); ok {
			acks = append(acks, a)
		}
	}), ProcConfig{})
	handled := 0
	p := NewProc(m.Thread(1, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		handled++
	}), ProcConfig{})
	p.Deliver(HeartbeatPing{ReplyTo: wd, Seq: 7})
	s.Drain()
	if len(acks) != 1 || acks[0].From != p || acks[0].Seq != 7 {
		t.Fatalf("acks=%v", acks)
	}
	if handled != 0 {
		t.Fatal("heartbeat leaked into the process handler")
	}
	// Hung: ping queues but is never answered.
	p.Hang()
	p.Deliver(HeartbeatPing{ReplyTo: wd, Seq: 8})
	s.RunFor(Millisecond)
	if len(acks) != 1 {
		t.Fatalf("hung process answered a heartbeat: %v", acks)
	}
	// Dead: ping dropped, never answered.
	p.Kill()
	p.Deliver(HeartbeatPing{ReplyTo: wd, Seq: 9})
	s.RunFor(Millisecond)
	if len(acks) != 1 {
		t.Fatalf("dead process answered a heartbeat: %v", acks)
	}
}

func TestDropRateInjectsLoss(t *testing.T) {
	s := New(42)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	handled := 0
	p := NewProc(m.Thread(0, 0), "w", HandlerFunc(func(ctx *Context, msg Message) {
		handled++
	}), ProcConfig{})
	p.SetDropRate(0.5)
	const n = 2000
	for i := 0; i < n; i++ {
		p.Deliver(i)
	}
	s.Drain()
	inj := p.Stats().DropInjected
	if handled+int(inj) != n {
		t.Fatalf("handled=%d dropped=%d, want sum %d", handled, inj, n)
	}
	if inj < n/3 || inj > 2*n/3 {
		t.Fatalf("injected drops=%d out of statistical range for rate 0.5", inj)
	}
	p.SetDropRate(0)
	p.Deliver("x")
	s.Drain()
	if p.Stats().DropInjected != inj {
		t.Fatal("drops injected after rate reset")
	}
}

func TestRespawnRevivesEndpointInPlace(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	handled := 0
	p := NewProc(m.Thread(0, 0), "svc", HandlerFunc(func(ctx *Context, msg Message) {
		handled++
	}), ProcConfig{})
	seed1 := p.ASLRSeed
	s.RunUntil(Microsecond)
	p.Hang()
	p.Deliver("stuck")
	p.Crash(ErrKilled)
	hangT := p.FailedAt()
	if hangT == 0 {
		t.Fatal("no failure time recorded")
	}
	p.Respawn()
	if p.Dead() || p.Hung() {
		t.Fatalf("respawn left proc dead=%v hung=%v", p.Dead(), p.Hung())
	}
	if p.CrashCause() != nil || p.FailedAt() != 0 {
		t.Fatalf("fault state survived respawn: %v %v", p.CrashCause(), p.FailedAt())
	}
	if p.QueueLen() != 0 {
		t.Fatalf("inbox survived respawn: %d", p.QueueLen())
	}
	if p.ASLRSeed == seed1 {
		t.Fatal("respawn reused the address-space layout")
	}
	// The same endpoint keeps working for clients that held the reference.
	p.Deliver("hello")
	s.Drain()
	if handled != 1 {
		t.Fatalf("respawned proc handled=%d", handled)
	}
	// Respawn on a live process is a no-op.
	seed2 := p.ASLRSeed
	p.Respawn()
	if p.ASLRSeed != seed2 {
		t.Fatal("Respawn touched a live process")
	}
}

// ---- scheduler edge cases: level boundaries, scatters, bounded runs ----

// tagTrace is an EventHandler that records each tag with its run time.
type tagTrace struct {
	s   *Simulator
	got []uint64
	at  []Time
}

func (r *tagTrace) OnEvent(tag uint64) {
	r.got = append(r.got, tag)
	r.at = append(r.at, r.s.Now())
}

// TestQueueFarWheelMigrationBoundary schedules events exactly around the L0
// horizon — one tick inside, at, and one tick beyond it, several horizons
// out — and on occupancy-word boundaries: they must still run in (at, seq)
// order, the ones beyond the horizon after their range is scattered into L0.
func TestQueueFarWheelMigrationBoundary(t *testing.T) {
	s := New(1)
	r := &tagTrace{s: s}
	horizon := Time(twSlots << bucketShift)
	times := []Time{
		horizon - 1,                  // last L0 bucket
		horizon,                      // first L1 range
		horizon + 1,                  // L1
		(3 * twSlots) << bucketShift, // several horizons out
		0,                            // bucket 0
		63<<bucketShift + 1,          // last slot of the first occupancy word
		64 << bucketShift,            // first slot of the second occupancy word
		(twSlots - 1) << bucketShift, // last L0 slot
		horizon,                      // same tick as an earlier schedule: runs after it
	}
	for i, at := range times {
		s.AtEvent(at, r, uint64(i))
	}
	if c := s.tw.counts; c[0] != 5 || c[1] != 4 {
		t.Fatalf("level counts %v, want 5 entries in L0 and 4 in L1", c)
	}
	s.Drain()
	want := []uint64{4, 5, 6, 7, 0, 1, 8, 2, 3}
	if !reflect.DeepEqual(r.got, want) {
		t.Fatalf("ran %v, want %v", r.got, want)
	}
	for i, tag := range r.got {
		if r.at[i] != times[tag] {
			t.Fatalf("event %d ran at %v, scheduled for %v", tag, r.at[i], times[tag])
		}
	}
	if ts := s.TimerStats(); ts.Cascades != 0 || s.PendingEvents() != 0 {
		t.Fatalf("after drain: %+v, %d events pending; events are no timers", ts, s.PendingEvents())
	}
}

// TestQueueSameTickSeqAcrossMigration pins FIFO order within one timestamp
// when some of the tied events are scattered down from L1 and another is
// scheduled straight into L0 after the range opened.
func TestQueueSameTickSeqAcrossMigration(t *testing.T) {
	s := New(1)
	r := &tagTrace{s: s}
	tick := Time((twSlots + 3) << bucketShift) // beyond the initial L0 horizon
	s.AtEvent(tick, r, 1)                      // L1
	s.AtEvent(100, r, 2)                       // L0
	s.AtEvent(tick, r, 3)                      // L1
	s.Step()
	// L0 is empty now: the next step opens tick's range and scatters both
	// L1 events into one L0 slot, in seq order.
	if at, ok := s.peekTime(); !ok || at > tick {
		t.Fatalf("peekTime = %v/%v, want a lower bound on %v", at, ok, tick)
	}
	s.Step()
	s.AtEvent(tick, r, 4) // at the clock: straight into L0, behind 3
	s.Drain()
	if want := []uint64{2, 1, 3, 4}; !reflect.DeepEqual(r.got, want) {
		t.Fatalf("ran %v, want %v", r.got, want)
	}
}

// TestScheduleAtNowAfterBoundedOpen: a bounded run may open a range without
// running anything in it, moving the position ahead of where the clock was.
// RunUntil leaves the clock at its limit, inside the opened range, so a
// schedule at the clock (or clamped to it) lands in L0 and runs first.
func TestScheduleAtNowAfterBoundedOpen(t *testing.T) {
	s := New(1)
	r := &tagTrace{s: s}
	far := Time((2*twSlots + 5) << bucketShift)
	s.AtEvent(far, r, 1)
	rangeStart := Time((2 * twSlots) << bucketShift)
	if at, ok := s.peekTime(); !ok || at != rangeStart {
		t.Fatalf("peekTime = %v/%v, want the range start %v", at, ok, rangeStart)
	}
	s.RunUntil(rangeStart + 10)
	if len(r.got) != 0 || s.tw.counts[0] != 1 {
		t.Fatalf("bounded run: ran %v, L0 holds %d, want nothing run and the range open", r.got, s.tw.counts[0])
	}
	if cur, clock := s.tw.cur, int64(s.Now())>>bucketShift; cur > clock {
		t.Fatalf("position %d ahead of the clock's bucket %d", cur, clock)
	}
	s.AtEvent(s.Now(), r, 2)
	s.AtEvent(3, r, 3) // in the past: clamped to the clock
	if at, ok := s.peekTime(); !ok || at != s.Now() {
		t.Fatalf("peekTime = %v/%v, want the clock %v", at, ok, s.Now())
	}
	s.Drain()
	if want := []uint64{2, 3, 1}; !reflect.DeepEqual(r.got, want) {
		t.Fatalf("ran %v, want %v", r.got, want)
	}
	if r.at[0] != rangeStart+10 || r.at[2] != far {
		t.Fatalf("run times %v", r.at)
	}
}

// TestQueuePeekTimeMatchesPop drives a randomized workload and checks that
// peekTime never announces a time after the next pop, and announces it
// exactly whenever the earliest event already sits in L0.
func TestQueuePeekTimeMatchesPop(t *testing.T) {
	s := New(1)
	r := &tagTrace{s: s}
	rng := rand.New(rand.NewSource(3))
	if _, ok := s.peekTime(); ok {
		t.Fatal("peekTime on an empty scheduler reported an event")
	}
	span := int64(twSlots) << (bucketShift + 2) // 4 horizons worth
	for i := 0; i < 500; i++ {
		s.AtEvent(Time(rng.Int63n(span)), r, uint64(i))
	}
	for n := 0; !s.Idle(); n++ {
		at, ok := s.peekTime()
		_, head, _ := s.tw.peek()
		if !ok {
			t.Fatal("peekTime reported empty with events pending")
		}
		ran := len(r.got)
		for len(r.got) == ran {
			s.Step()
		}
		if got := s.Now(); got < at || (head != 0 && got != at) {
			t.Fatalf("peekTime = %v (exact %v) but the next pop ran at %v", at, head != 0, got)
		}
		// Interleave schedules to mix L0 and upper levels mid-drain.
		if n%7 == 0 {
			s.AtEvent(s.Now()+Time(rng.Int63n(span)), r, uint64(1000+n))
		}
	}
	if _, ok := s.peekTime(); ok {
		t.Fatal("peekTime on a drained scheduler reported an event")
	}
}
