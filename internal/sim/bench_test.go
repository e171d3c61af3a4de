package sim

import (
	"math/rand"
	"testing"
)

type benchSink struct{ n uint64 }

func (s *benchSink) OnEvent(tag uint64) { s.n += tag }

// BenchmarkEventSchedulePop measures one closure-free schedule and one pop
// of the scheduler in steady state, a hold model: every iteration runs the
// earliest pending event and schedules a replacement, so the population
// stays constant.
//
//   - near: 1024 events pending within the first 1 ms, about one per µs:
//     the next 65 µs of them in L0, the rest in the first L1 slots,
//     scattered into L0 as the clock reaches them;
//   - far: 1024 events 10–14 ms out, each placed in L1 and scattered into
//     L0 when its range opens;
//   - gap_burst: one far event pending across a 1 s idle gap, then a burst
//     of 1024 near schedules popped in order, as a quiet stack wakes up.
func BenchmarkEventSchedulePop(b *testing.B) {
	const pop = 1024
	hold := func(b *testing.B, base, spread Time) {
		s := New(1)
		sink := &benchSink{}
		next := func(i int) Time { return base + Time(i*7919%pop)*spread/pop }
		for i := 0; i < pop; i++ {
			s.AtEvent(next(i), sink, 1)
		}
		step := func(i int) {
			s.Step()
			s.AtEvent(s.Now()+next(i), sink, 1)
		}
		for i := 0; i < 4*pop; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	}
	b.Run("near", func(b *testing.B) { hold(b, 0, Millisecond) })
	b.Run("far", func(b *testing.B) { hold(b, 10*Millisecond, 4*Millisecond) })
	b.Run("gap_burst", func(b *testing.B) {
		s := New(1)
		sink := &benchSink{}
		burst := func() {
			s.AtEvent(s.Now()+20*Second, sink, 0) // the far sentinel
			s.RunFor(Second)
			start := s.Now()
			for i := 0; i < pop; i++ {
				s.AtEvent(start+Time(i*7919%pop)*Microsecond, sink, 1)
			}
			s.RunFor(2 * Millisecond)
		}
		for i := 0; i < 4; i++ {
			burst()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += pop {
			burst()
		}
		if sink.n == 0 {
			b.Fatal("no events ran")
		}
	})
}

// BenchmarkEventScheduleDense is the hold model at the density a web
// workload keeps in front of the clock: 80 events pending, each replaced at
// a uniformly random nanosecond up to 32 µs ahead, so about 20 wait within
// the next 4 µs and every schedule lands among neighbours at random sub-µs
// offsets. The hold models above space their events about a microsecond
// apart; this one is dense enough that an L0 insert has to step back past
// later entries in its bucket, the walk the L0 bucket width sets.
func BenchmarkEventScheduleDense(b *testing.B) {
	const (
		pop     = 80
		horizon = 32 * Microsecond
	)
	rng := rand.New(rand.NewSource(1))
	var ahead [4096]Time
	for i := range ahead {
		ahead[i] = Time(rng.Int63n(int64(horizon)))
	}
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < pop; i++ {
		s.AtEvent(ahead[i], sink, 1)
	}
	step := func(i int) {
		s.Step()
		s.AtEvent(s.Now()+ahead[i%len(ahead)], sink, 1)
	}
	for i := 0; i < 16*pop; i++ {
		step(i)
	}
	before := s.TimerStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	ts := s.TimerStats()
	if n := ts.L0Inserts - before.L0Inserts; n > 0 {
		b.ReportMetric(float64(ts.L0Steps-before.L0Steps)/float64(n), "steps/insert")
	}
}

// timerBench is one process driven one tick per simulated microsecond; the
// tick handler is the benchmark's timer operation. Timers that fire deliver
// a non-tick message, which the handler ignores.
type timerBench struct {
	s      *Simulator
	p      *Proc
	cursor Time
	onTick func(ctx *Context, n int)
	ticks  int
}

var benchTick = &struct{ tick bool }{true}

func newTimerBench(onTick func(ctx *Context, n int)) *timerBench {
	tb := &timerBench{s: New(1), onTick: onTick}
	m := NewMachine(tb.s, "m", 1, 1, 2_000_000_000)
	tb.p = NewProc(m.Thread(0, 0), "p", HandlerFunc(func(ctx *Context, msg Message) {
		if msg == Message(benchTick) {
			tb.ticks++
			tb.onTick(ctx, tb.ticks)
		}
	}), ProcConfig{})
	return tb
}

func (tb *timerBench) run(b *testing.B, warm int) {
	for i := 0; i < warm; i++ {
		tb.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.tick()
	}
}

func (tb *timerBench) tick() {
	tb.p.Deliver(benchTick)
	tb.cursor += Microsecond
	tb.s.RunUntil(tb.cursor)
}

// BenchmarkTimerRearm is the per-segment retransmission-timer pattern: one
// dispatch that re-arms a timer long before it would fire, with 100 000
// other timers live in the wheel (a conn-scale bed's idle guards).
func BenchmarkTimerRearm(b *testing.B) {
	const population = 100_000
	guards := make([]Timer, population)
	var rexmit Timer
	fire := &struct{}{}
	tb := newTimerBench(func(ctx *Context, n int) {
		if n == 1 {
			for i := range guards {
				ctx.Retimer(&guards[i], 100*Second+Time(i)*Millisecond, fire)
			}
		}
		ctx.Retimer(&rexmit, 200*Millisecond, fire)
	})
	// Warm past one full re-arm horizon, so that whatever a superseded arm
	// costs when its deadline comes is part of the steady state.
	tb.run(b, 300_000)
	if got := tb.s.TimerStats().Pending; got < population {
		b.Fatalf("%d timers resident, population is %d", got, population)
	}
}

// BenchmarkTimerArmStop is the delayed-ACK pattern: each dispatch stops the
// timer the previous one armed and arms another, so every entry is unlinked
// while resident and none fires.
func BenchmarkTimerArmStop(b *testing.B) {
	var timers [2]Timer
	fire := &struct{}{}
	tb := newTimerBench(func(ctx *Context, n int) {
		timers[(n+1)%2].Stop()
		ctx.Retimer(&timers[n%2], 500*Microsecond, fire)
	})
	tb.run(b, 10_000)
}

// BenchmarkTimerArmFire arms a short timer per dispatch and lets it fire:
// four handles in rotation, each delivered before its turn comes again.
func BenchmarkTimerArmFire(b *testing.B) {
	var timers [4]Timer
	fire := &struct{}{}
	tb := newTimerBench(func(ctx *Context, n int) {
		ctx.Retimer(&timers[n%4], 2500*Nanosecond, fire)
	})
	tb.run(b, 10_000)
	if fired := tb.s.TimerStats().Fired; fired < uint64(b.N) {
		b.Fatalf("%d timers fired in %d ticks", fired, b.N)
	}
}
