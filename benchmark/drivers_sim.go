package main

import (
	"errors"
	"time"

	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
)

// tick is the pre-boxed message the process drivers deliver, so the timed
// loops allocate nothing of their own.
type tickMsg struct{}

var tick sim.Message = &tickMsg{}

type nopEvent struct{ n int }

func (e *nopEvent) OnEvent(uint64) { e.n++ }

// driveSchedule: schedule one closure-free event and run it (calendar
// queue insert + pop + call), 1000 events per simulated millisecond.
func driveSchedule(p layerParams) (float64, error) {
	chunks, per := p.scaled(200), 1000
	s := sim.New(1)
	h := &nopEvent{}
	t0 := time.Now()
	for c := 0; c < chunks; c++ {
		now := s.Now()
		for i := 0; i < per; i++ {
			s.AtEvent(now+sim.Time(i+1)*sim.Microsecond, h, 0)
		}
		s.RunFor(sim.Millisecond)
	}
	d := time.Since(t0)
	if h.n != chunks*per {
		return 0, errors.New("scheduled events did not all run")
	}
	return perCall(d, chunks*per), nil
}

// countingProc is a process whose handler runs fn per message.
type countingProc struct {
	n  int
	fn func(ctx *sim.Context, msg sim.Message)
}

func (c *countingProc) HandleMessage(ctx *sim.Context, msg sim.Message) {
	c.n++
	if c.fn != nil {
		c.fn(ctx, msg)
	}
}

// driveTicks delivers n ticks to p, one per simulated microsecond, in
// chunks of 1000, and returns the elapsed host time.
func driveTicks(s *sim.Simulator, p *sim.Proc, n int) time.Duration {
	t0 := time.Now()
	for done := 0; done < n; done += 1000 {
		now := s.Now()
		for i := 0; i < 1000; i++ {
			s.DeliverAt(now+sim.Time(i+1)*sim.Microsecond, p, tick)
		}
		s.RunFor(sim.Millisecond)
	}
	return time.Since(t0)
}

// driveDispatch: deliver one message to a halted process and dispatch it
// to a handler that does nothing (wake, inbox, dispatch loop, halt).
func driveDispatch(p layerParams) (float64, error) {
	n := 1000 * p.scaled(200)
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1, 1, 2_000_000_000)
	h := &countingProc{}
	proc := sim.NewProc(m.Thread(0, 0), "p", h, sim.ProcConfig{})
	d := driveTicks(s, proc, n)
	if h.n != n {
		return 0, errors.New("delivered messages were not all dispatched")
	}
	return perCall(d, n), nil
}

// driveTimers measures one dispatch that arms a timer, with the workload's
// live-timer population resident in the wheel. rearm=true re-arms one
// timer again and again before it fires, as TCP does with its
// retransmission timer on every segment (the superseded arms still fire
// later, as no-ops); rearm=false arms a short timer that does fire (four
// timers in rotation, each fired before its turn comes again). The run
// stays well inside the population's horizon.
//
// A nearer timer is always pending, so the wheel's position never leaps
// ahead of the clock: the drivers time the wheel's designed path, not the
// parked-slot rescans described under "Findings" in README.md — those
// show in the workloads' sim.host_share and sim.host_ns_per_event.
func driveTimers(p layerParams, rearm bool) (float64, error) {
	n := 1000 * p.scaled(20) // 20 ms of simulated time at one tick per µs
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1, 1, 2_000_000_000)
	horizon := max(p.timerHorizon, 50*sim.Millisecond)
	var fg [4]sim.Timer
	fired := &tickMsg{}
	h := &countingProc{}
	ticks := 0
	h.fn = func(ctx *sim.Context, msg sim.Message) {
		if msg != tick {
			return
		}
		ticks++
		if rearm {
			ctx.Retimer(&fg[0], 5*sim.Millisecond, fired)
		} else {
			ctx.Retimer(&fg[ticks%len(fg)], 2500*sim.Nanosecond, fired)
		}
		if ticks == 1 {
			for i := 0; i < p.timers; i++ {
				at := horizon/2 + sim.Time(int64(i)*int64(horizon/2)/int64(p.timers))
				ctx.TimerAfter(at, fired)
			}
		}
	}
	proc := sim.NewProc(m.Thread(0, 0), "p", h, sim.ProcConfig{})
	proc.Deliver(tick) // arms the population
	s.RunFor(sim.Microsecond)
	if got := s.TimerStats().Pending; got < p.timers {
		return 0, errors.New("timer population was not armed")
	}
	return perCall(driveTicks(s, proc, n), n), nil
}

// driveIPC: one message over a modeled ring between two processes on
// their own cores: the sender's dispatch, ipc.Send, the scheduled
// delivery and the receiver's dispatch.
func driveIPC(p layerParams) (float64, error) {
	n := 1000 * p.scaled(100)
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 2_000_000_000)
	recv := &countingProc{}
	rp := sim.NewProc(m.Thread(1, 0), "recv", recv, sim.ProcConfig{})
	conn := ipc.New(rp, ipc.DefaultCosts())
	send := &countingProc{fn: func(ctx *sim.Context, msg sim.Message) { conn.Send(ctx, tick) }}
	sp := sim.NewProc(m.Thread(0, 0), "send", send, sim.ProcConfig{})
	d := driveTicks(s, sp, n)
	s.RunFor(sim.Millisecond)
	if recv.n != n {
		return 0, errors.New("sent messages were not all received")
	}
	return perCall(d, n), nil
}

// driveSocketSend: Socket.Send on an open socket, the application's fast
// path: credit accounting, a pooled OpSend, one ring send to the owning
// replica. The SYSCALL server and the replica are stubs that answer the
// connect and recycle the sends.
func driveSocketSend(p layerParams) (float64, error) {
	n := 1000 * p.scaled(100)
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 3, 1, 2_000_000_000)
	data := make([]byte, p.payload)

	sink := &countingProc{fn: func(ctx *sim.Context, msg sim.Message) {
		if op, ok := msg.(*stack.OpSend); ok {
			op.Recycle()
		}
	}}
	replica := sim.NewProc(m.Thread(2, 0), "replica", sink, sim.ProcConfig{})
	syscall := sim.NewProc(m.Thread(1, 0), "syscall", &countingProc{fn: func(ctx *sim.Context, msg sim.Message) {
		if op, ok := msg.(stack.OpConnect); ok {
			ctx.Send(op.App, stack.EvConnected{ReqID: op.ReqID, ConnID: 1, Stack: replica, SendBuf: 1 << 40})
		}
	}}, sim.ProcConfig{})

	var lib *socketlib.Lib
	var sock *socketlib.Socket
	app := &countingProc{}
	app.fn = func(ctx *sim.Context, msg sim.Message) {
		switch {
		case lib.HandleEvent(ctx, msg):
		case sock == nil:
			sock = lib.Connect(ctx, drvDstIP, 80)
		case sock.State() == socketlib.SockOpen:
			sock.Send(ctx, data)
		}
	}
	ap := sim.NewProc(m.Thread(0, 0), "app", app, sim.ProcConfig{})
	lib = socketlib.New(ap, syscall, ipc.DefaultCosts())
	ap.Deliver(tick)
	s.RunFor(sim.Millisecond)
	if sock == nil || sock.State() != socketlib.SockOpen {
		return 0, errors.New("stub connect did not open the socket")
	}
	before := sink.n
	d := driveTicks(s, ap, n)
	s.RunFor(sim.Millisecond)
	if sink.n-before != n {
		return 0, errors.New("sends did not all reach the replica stub")
	}
	return perCall(d, n), nil
}
