package sim

import "testing"

type benchSink struct{ n uint64 }

func (s *benchSink) OnEvent(tag uint64) { s.n += tag }

// BenchmarkSimSchedule measures the closure-free schedule+dispatch cycle of
// the calendar queue in steady state: one insert and one pop per iteration,
// with the timer horizon spread across the wheel.
func BenchmarkSimSchedule(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < b.N; i++ {
		s.AfterEvent(Time(i%1000)*Microsecond, sink, 1)
		s.Step()
	}
	s.Drain()
	if sink.n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkSimScheduleFar exercises the far-future heap spill: every
// insertion lands beyond the wheel horizon and must migrate back in.
func BenchmarkSimScheduleFar(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	sink := &benchSink{}
	for i := 0; i < b.N; i++ {
		s.AfterEvent(10*Millisecond, sink, 1) // past the 1024-bucket horizon
		s.Step()
	}
	s.Drain()
	if sink.n == 0 {
		b.Fatal("no events ran")
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
