package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// Property test: under a seeded random workload of arm / stop / re-arm
// operations — including reactions taken from inside timer fires — the
// timer handles deliver exactly the firing sequence of refTimers below,
// which plants one ordinary delayed self-send per arm and cancels lazily by
// generation: eager O(1) unlinking against lazy cancellation, through the
// whole dispatch and flush path. Both run on the same scheduler; the
// scheduler itself is held to an independent binary heap by
// TestSchedulerMatchesReferenceHeap (refsched_test.go). Same-tick ordering
// by (deadline, arm order) is covered implicitly: any divergence reorders
// the trace.

type twArm struct {
	id    int
	delay Time
}

type twStop struct{ id int }

// timerImpl is what the scripted handler drives: the wheel or the reference.
type timerImpl interface {
	arm(ctx *Context, id int, d Time)
	stop(id int)
	// fired maps a delivered message to the timer it fires, or -1 for a
	// message that is no live firing.
	fired(msg Message) int
}

const twTimers = 64

type wheelTimers struct{ t [twTimers]Timer }

func (w *wheelTimers) arm(ctx *Context, id int, d Time) { ctx.Retimer(&w.t[id], d, id) }
func (w *wheelTimers) stop(id int)                      { w.t[id].Stop() }
func (w *wheelTimers) fired(msg Message) int {
	if id, ok := msg.(int); ok {
		return id
	}
	return -1
}

type refFire struct {
	id  int
	gen uint64
}

type refTimers struct{ gen [twTimers]uint64 }

func (r *refTimers) arm(ctx *Context, id int, d Time) {
	r.gen[id]++
	ctx.SendDelayed(ctx.Proc, refFire{id, r.gen[id]}, d)
}
func (r *refTimers) stop(id int) { r.gen[id]++ }
func (r *refTimers) fired(msg Message) int {
	if f, ok := msg.(refFire); ok && f.gen == r.gen[f.id] {
		r.gen[f.id]++ // one delivery per arm
		return f.id
	}
	return -1
}

// timerTrace runs one implementation over the script and returns the
// sequence of timer firings as "id@time" strings. The reaction RNG draws in
// fire order, so a single divergence amplifies into a visibly different
// trace. live is the script's own record of which timers are armed; with
// the wheel, a firing of a timer it holds stopped fails the test, the
// wheel's Pending gauge must equal the live count whenever no popped firing
// is waiting in the inbox, and the position may never pass the clock.
func timerTrace(t *testing.T, impl timerImpl, script []Message, reseed int64) []string {
	s := New(7)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	rng := rand.New(rand.NewSource(reseed))
	var live [twTimers]bool
	_, isWheel := impl.(*wheelTimers)
	var trace []string
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		switch op := msg.(type) {
		case twArm:
			ctx.Charge(5)
			impl.arm(ctx, op.id, op.delay)
			live[op.id] = true
			return
		case twStop:
			ctx.Charge(5)
			impl.stop(op.id)
			live[op.id] = false
			return
		}
		id := impl.fired(msg)
		if id < 0 {
			if isWheel {
				t.Errorf("wheel delivered %v, which is no live firing", msg)
			}
			return // a lazily cancelled reference firing costs nothing
		}
		if !live[id] {
			t.Errorf("timer %d fired at %d while stopped", id, s.Now())
		}
		live[id] = false
		ctx.Charge(5)
		trace = append(trace, fmt.Sprintf("%d@%d", id, s.Now()))
		switch rng.Intn(4) {
		case 0: // re-arm self, short horizon (level 0/1)
			impl.arm(ctx, id, Time(rng.Int63n(int64(40*Millisecond))))
			live[id] = true
		case 1: // arm a sibling, long horizon (level 2 and beyond)
			j := rng.Intn(twTimers)
			impl.arm(ctx, j, Time(rng.Int63n(int64(7200*Second))))
			live[j] = true
		case 2: // stop a sibling (possibly not armed)
			j := rng.Intn(twTimers)
			impl.stop(j)
			live[j] = false
		}
	}), ProcConfig{})
	for i, op := range script {
		op := op
		s.At(Time(i)*50*Microsecond, func() { p.Deliver(op) })
	}
	// Four hours: long enough for level-3 entries to open and fire.
	for s.stepNext(4*3600*Second, true) {
		if cur, clock := s.tw.cur, int64(s.Now())>>bucketShift; cur > clock {
			t.Fatalf("at %d: wheel position %d is ahead of the clock's bucket %d", s.Now(), cur, clock)
		}
		if !isWheel || len(p.inbox) > 0 {
			continue
		}
		n := 0
		for _, l := range live {
			if l {
				n++
			}
		}
		if got := s.TimerStats().Pending; got != n {
			t.Fatalf("at %d: wheel holds %d entries, %d timers are armed", s.Now(), got, n)
		}
	}
	if isWheel {
		if ts := s.TimerStats(); ts.Fired != uint64(len(trace)) {
			t.Errorf("wheel popped %d entries for %d deliveries", ts.Fired, len(trace))
		}
	}
	return trace
}

func TestTimerWheelMatchesReferenceScheduler(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		var script []Message
		for i := 0; i < 300; i++ {
			switch rng.Intn(6) {
			case 0:
				script = append(script, twStop{id: rng.Intn(twTimers)})
			case 1: // far-future arm: exercises levels 2 and 3
				script = append(script, twArm{
					id: rng.Intn(twTimers), delay: Time(rng.Int63n(int64(3*3600) * int64(Second)))})
			default:
				script = append(script, twArm{
					id: rng.Intn(twTimers), delay: Time(rng.Int63n(int64(200 * Millisecond)))})
			}
		}
		wheel := timerTrace(t, &wheelTimers{}, script, seed)
		ref := timerTrace(t, &refTimers{}, script, seed)
		if len(wheel) == 0 {
			t.Fatalf("seed %d: empty trace (script did not fire)", seed)
		}
		if !reflect.DeepEqual(wheel, ref) {
			n := len(wheel)
			if len(ref) < n {
				n = len(ref)
			}
			for i := 0; i < n; i++ {
				if wheel[i] != ref[i] {
					t.Fatalf("seed %d: traces diverge at %d: wheel=%s ref=%s",
						seed, i, wheel[i], ref[i])
				}
			}
			t.Fatalf("seed %d: trace lengths differ: wheel=%d ref=%d",
				seed, len(wheel), len(ref))
		}
	}
}

// timerBed is one process whose handler runs whatever function it is sent,
// and records every other message it receives with its arrival time.
type timerBed struct {
	s    *Simulator
	p    *Proc
	got  []string
	hook func(ctx *Context, msg Message) // optional, runs on every recorded message
}

func newTimerBed() *timerBed {
	b := &timerBed{s: New(1)}
	m := NewMachine(b.s, "m", 1, 1, 1_000_000_000)
	b.p = NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		if fn, ok := msg.(func(*Context)); ok {
			fn(ctx)
			return
		}
		b.got = append(b.got, fmt.Sprintf("%v@%d", msg, b.s.Now()))
		if b.hook != nil {
			b.hook(ctx, msg)
		}
	}), ProcConfig{})
	return b
}

// do runs fn inside one dispatch of the bed's process, flush included.
func (b *timerBed) do(fn func(ctx *Context)) {
	b.p.Deliver(fn)
	b.s.Step()
}

func (b *timerBed) levelCounts() [twLevels]int { return b.s.tw.counts }

// levelDelay returns a delay that a wheel positioned at the clock places in
// level l: half of that level's window, so the deadline sits well inside it.
func levelDelay(l int) Time {
	return Time(twSlots/2) << uint(bucketShift+l*twSlotBits)
}

// beyondWheel is a delay past the last level's window.
const beyondWheel = Time(1)<<uint(bucketShift+twLevels*twSlotBits) + 5*Second

// TestTimerStopAndRetimerAtEveryLevel cancels and moves entries resident in
// each level of the wheel, the clamped slot beyond the last window included.
func TestTimerStopAndRetimerAtEveryLevel(t *testing.T) {
	var delays [twLevels + 1]Time
	for l := 0; l < twLevels; l++ {
		delays[l] = levelDelay(l)
	}
	delays[twLevels] = beyondWheel
	for want, d := range delays {
		level := want
		if level >= twLevels {
			level = twLevels - 1
		}
		b := newTimerBed()
		var tm Timer
		b.do(func(ctx *Context) { ctx.Retimer(&tm, d, "far") })
		if c := b.levelCounts(); c[level] != 1 || b.s.TimerStats().Pending != 1 || !tm.Armed() {
			t.Fatalf("delay %v: level counts %v, want one entry at level %d", d, c, level)
		}
		tm.Stop()
		if c := b.levelCounts(); c != ([twLevels]int{}) || tm.Armed() {
			t.Fatalf("delay %v: entry survived Stop: %v", d, c)
		}
		if !b.s.Idle() {
			t.Fatalf("delay %v: simulator not idle after the only timer was stopped", d)
		}

		// Re-arm at the same level, then move the entry down to L0: it must
		// fire once, at the new deadline.
		b.do(func(ctx *Context) { ctx.Retimer(&tm, d, "far") })
		near := levelDelay(0) / 2
		b.do(func(ctx *Context) { ctx.Retimer(&tm, near, "near") })
		if c := b.levelCounts(); c[0] != 1 || b.s.TimerStats().Pending != 1 {
			t.Fatalf("delay %v: Retimer left %v", d, c)
		}
		b.s.Drain()
		if want := []string{fmt.Sprintf("near@%d", near)}; !reflect.DeepEqual(b.got, want) {
			t.Fatalf("delay %v: delivered %v, want %v", d, b.got, want)
		}
		if !tm.Fired() || tm.Armed() {
			t.Fatalf("delay %v: Fired=%v Armed=%v after delivery", d, tm.Fired(), tm.Armed())
		}
	}
}

// TestTimerFiresFromEveryLevel lets an entry of each level that a finite run
// can reach open its way down and fire at its exact deadline.
func TestTimerFiresFromEveryLevel(t *testing.T) {
	var delays [twLevels]Time
	for l := range delays {
		delays[l] = levelDelay(l) + Time(l+1)
	}
	b := newTimerBed()
	timers := make([]Timer, len(delays))
	b.do(func(ctx *Context) {
		for i := len(delays) - 1; i >= 0; i-- {
			ctx.Retimer(&timers[i], delays[i], i)
		}
	})
	if c := b.levelCounts(); c != ([twLevels]int{1, 1, 1, 1, 1}) {
		t.Fatalf("level counts %v, want one entry per level", c)
	}
	b.s.Drain()
	var want []string
	for i, d := range delays {
		want = append(want, fmt.Sprintf("%d@%d", i, d))
	}
	if !reflect.DeepEqual(b.got, want) {
		t.Fatalf("delivered %v, want %v", b.got, want)
	}
	if ts := b.s.TimerStats(); ts.Pending != 0 || ts.Fired != uint64(len(delays)) || ts.Cascades == 0 {
		t.Fatalf("stats after drain: %+v", ts)
	}
}

// TestTimerStopBeforeFlush: a Stop issued after Retimer inside the same
// dispatch cancels the buffered arm, so nothing ever reaches the wheel; of
// two Retimers in one dispatch only the second does.
func TestTimerStopBeforeFlush(t *testing.T) {
	b := newTimerBed()
	var stopped, twice Timer
	b.do(func(ctx *Context) {
		ctx.Retimer(&stopped, 50*Microsecond, "stopped")
		stopped.Stop()
		ctx.Retimer(&twice, 50*Microsecond, "first")
		ctx.Retimer(&twice, 80*Microsecond, "second")
	})
	if got := b.s.TimerStats().Pending; got != 1 {
		t.Fatalf("%d entries resident, want 1", got)
	}
	if stopped.Armed() || !twice.Armed() {
		t.Fatalf("Armed: stopped=%v twice=%v", stopped.Armed(), twice.Armed())
	}
	b.s.Drain()
	if want := []string{"second@80000"}; !reflect.DeepEqual(b.got, want) {
		t.Fatalf("delivered %v, want %v", b.got, want)
	}
	if ts := b.s.TimerStats(); ts.Fired != 1 {
		t.Fatalf("wheel popped %d entries, want 1", ts.Fired)
	}
}

// TestTimerStopAfterPop: two timers share a deadline, so both firings are
// popped into the inbox before the dispatch runs; the first one's handler
// stops the second, whose wheel entry is already gone. The generation check
// at dispatch is what still drops it.
func TestTimerStopAfterPop(t *testing.T) {
	b := newTimerBed()
	var first, second Timer
	b.hook = func(ctx *Context, msg Message) {
		if msg == "first" {
			if len(b.p.inbox) != 0 || second.Armed() {
				t.Errorf("second firing not popped yet: Armed=%v", second.Armed())
			}
			second.Stop()
		}
	}
	b.do(func(ctx *Context) {
		ctx.Retimer(&first, 50*Microsecond, "first")
		ctx.Retimer(&second, 50*Microsecond, "second")
	})
	b.s.Drain()
	if want := []string{"first@50000"}; !reflect.DeepEqual(b.got, want) {
		t.Fatalf("delivered %v, want %v", b.got, want)
	}
	if second.Fired() {
		t.Fatal("stopped timer reports Fired")
	}
	if ts := b.s.TimerStats(); ts.Fired != 2 || ts.Pending != 0 {
		t.Fatalf("stats %+v, want both entries popped", ts)
	}
}

// TestTimerRearmFromOwnHandler: a periodic timer re-armed by its own firing
// keeps exactly one wheel entry and fires on every period.
func TestTimerRearmFromOwnHandler(t *testing.T) {
	b := newTimerBed()
	var tm Timer
	const period = 3 * Millisecond // beyond L0's window: every arm is scattered down
	fires := 0
	b.hook = func(ctx *Context, msg Message) {
		if !tm.Fired() || tm.Armed() {
			t.Errorf("inside the handler: Fired=%v Armed=%v", tm.Fired(), tm.Armed())
		}
		if fires++; fires < 5 {
			ctx.Retimer(&tm, period, "tick")
		}
	}
	b.do(func(ctx *Context) { ctx.Retimer(&tm, period, "tick") })
	for b.s.Step() {
		if want := 1; len(b.p.inbox) == 0 && fires < 5 && b.s.TimerStats().Pending != want {
			t.Fatalf("after firing %d: %d entries resident, want %d", fires, b.s.TimerStats().Pending, want)
		}
	}
	var want []string
	for i := 1; i <= 5; i++ {
		want = append(want, fmt.Sprintf("tick@%d", Time(i)*period))
	}
	if !reflect.DeepEqual(b.got, want) {
		t.Fatalf("delivered %v, want %v", b.got, want)
	}
}

// TestTimerWheelPositionFollowsClock is the regression test for the parked
// slot: with only a far-off timer pending, the position used to leap to that
// timer's deadline across an idle gap, and every nearer arm made afterwards
// then parked in the one current L0 slot, which each pop rescanned. The
// position must stay with the clock, so that no slot ever holds more than
// the arms of its own L0 bucket.
func TestTimerWheelPositionFollowsClock(t *testing.T) {
	const (
		near   = 50_000
		spread = 40 * Millisecond
	)
	b := newTimerBed()
	var far Timer
	b.do(func(ctx *Context) { ctx.Retimer(&far, 20*Second, "far") })
	b.s.RunFor(Second) // idle gap: nothing but the far timer is pending
	if cur, clock := b.s.tw.cur, int64(b.s.Now())>>bucketShift; cur > clock {
		t.Fatalf("position %d ran ahead of the clock's bucket %d", cur, clock)
	}

	timers := make([]Timer, near)
	perBucket := map[int64]int{}
	start := b.s.Now()
	b.do(func(ctx *Context) {
		for i := range timers {
			d := Time(int64(i) * int64(spread) / near)
			perBucket[int64(start+d)>>bucketShift]++
			ctx.Retimer(&timers[i], d, "near")
		}
	})
	maxArms := 0
	for _, n := range perBucket {
		if n > maxArms {
			maxArms = n
		}
	}
	fired := 0
	b.hook = func(*Context, Message) { fired++ }
	for checks := 0; fired < near; checks++ {
		if !b.s.Step() {
			t.Fatalf("simulator idle after %d of %d near timers", fired, near)
		}
		if checks%512 != 0 {
			continue
		}
		w := &b.s.tw
		for slot := range w.heads[0] {
			n := 0
			for i := w.heads[0][slot]; i != 0; {
				n++
				if i = w.node(i).next; i == w.heads[0][slot] {
					break
				}
			}
			if n > maxArms {
				t.Fatalf("after %d firings L0 slot %d holds %d entries; the fullest bucket was armed %d times",
					fired, slot, n, maxArms)
			}
		}
	}
	if got := b.s.TimerStats().Pending; got != 1 || !far.Armed() {
		t.Fatalf("%d entries resident after the near timers fired, want the far one", got)
	}
}

// TestEventPositionFollowsClock is the parked-slot regression with events:
// with only a far event pending, a 1 s idle gap must not move the position
// to that event, or every nearer schedule afterwards would park in one L0
// slot and be rescanned per pop. No L0 slot may ever hold more than the
// schedules of its own L0 bucket.
func TestEventPositionFollowsClock(t *testing.T) {
	const (
		near   = 50_000
		spread = 40 * Millisecond
	)
	s := New(1)
	r := &tagTrace{s: s}
	s.AtEvent(20*Second, r, 0)
	s.RunFor(Second) // idle gap: nothing but the far event is pending
	if cur, clock := s.tw.cur, int64(s.Now())>>bucketShift; cur > clock {
		t.Fatalf("position %d ran ahead of the clock's bucket %d", cur, clock)
	}
	perBucket := map[int64]int{}
	start := s.Now()
	for i := 0; i < near; i++ {
		at := start + Time(int64(i)*int64(spread)/near)
		perBucket[int64(at)>>bucketShift]++
		s.AtEvent(at, r, 1)
	}
	maxPerBucket := 0
	for _, n := range perBucket {
		maxPerBucket = max(maxPerBucket, n)
	}
	w := &s.tw
	for steps := 0; len(r.got) < near; steps++ {
		if !s.Step() {
			t.Fatalf("simulator idle after %d of %d near events", len(r.got), near)
		}
		if steps%512 != 0 {
			continue
		}
		for slot := range w.heads[0] {
			n := 0
			for i := w.heads[0][slot]; i != 0; {
				n++
				if i = w.node(i).next; i == w.heads[0][slot] {
					break
				}
			}
			if n > maxPerBucket {
				t.Fatalf("after %d events L0 slot %d holds %d entries; the fullest bucket had %d schedules",
					len(r.got), slot, n, maxPerBucket)
			}
		}
	}
	if got := s.PendingEvents(); got != 1 {
		t.Fatalf("%d events pending after the near ones ran, want the far one", got)
	}
}

// TestWheelNodeSize pins the node at one cache line: conn-scale beds keep
// about a hundred thousand timers resident, so every byte of a node is
// about 0.1 MB of live heap.
func TestWheelNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(twNode{}); n > 64 {
		t.Fatalf("twNode is %d bytes, budget 64", n)
	}
}

// TestTimerArmStopZeroAlloc guards the steady-state contract: arming,
// stopping and firing timers through the wheel allocates nothing once the
// node pool has reached the live population.
func TestTimerArmStopZeroAlloc(t *testing.T) {
	const period = Time(1 << 21) // ~2.1 ms: an L1 arm
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var timers [8]Timer // 0..3 periodic, 4..7 guards (re-armed, never fire)
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		if msg == Message("kick") {
			for i := 0; i < 4; i++ {
				ctx.Retimer(&timers[i], Time(i+1)*(period/8), i)
			}
			return
		}
		// Timer fire: the tcpeng per-segment pattern — re-arm the long-lived
		// timer, and stop and re-arm a guard whose entry, resident in L1
		// since the previous period, is unlinked and its node reused.
		i := msg.(int)
		ctx.Retimer(&timers[i], period, i)
		timers[4+i].Stop()
		ctx.Retimer(&timers[4+i], 4*period, 4+i)
	}), ProcConfig{})
	p.Deliver("kick")
	cursor := Time(0)
	for i := 0; i < 64; i++ {
		cursor += period
		s.RunUntil(cursor)
	}
	allocs := testing.AllocsPerRun(500, func() {
		cursor += period
		s.RunUntil(cursor)
	})
	if allocs != 0 {
		t.Fatalf("timer arm/stop/fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerStatsPendingAndCascades checks the observability counters: the
// pending gauge tracks armed-but-unfired entries and cascades accumulate
// when long-horizon timers migrate down the levels.
func TestTimerStatsPendingAndCascades(t *testing.T) {
	s := New(1)
	m := NewMachine(s, "m", 1, 1, 1_000_000_000)
	var timers [32]Timer
	p := NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		ctx.Charge(10)
		if msg == Message("arm") {
			for i := range timers {
				// Beyond level 0 (~65 µs): these must cascade to fire.
				ctx.Retimer(&timers[i], 10*Millisecond+Time(i)*Millisecond, i)
			}
		}
	}), ProcConfig{})
	p.Deliver("arm")
	s.Step() // dispatch
	ts := s.TimerStats()
	if ts.Pending != len(timers) {
		t.Fatalf("pending=%d, want %d", ts.Pending, len(timers))
	}
	s.Drain()
	ts = s.TimerStats()
	if ts.Pending != 0 {
		t.Fatalf("pending=%d after drain, want 0", ts.Pending)
	}
	if ts.Fired != uint64(len(timers)) {
		t.Fatalf("fired=%d, want %d", ts.Fired, len(timers))
	}
	if ts.Cascades == 0 {
		t.Fatal("no cascades recorded for level-1 timers")
	}
}
