// Faulttolerance: the reliability story of §3.6 and §6.6.
//
// A NEaT stack with two multi-component replicas serves long-lived
// connections. We inject two faults:
//
//  1. into the (stateless) IP process of a replica — recovery is fully
//     transparent, every connection survives;
//  2. into the TCP process — that replica's connections are lost, the
//     other replica's connections are completely unaffected, and the
//     respawned replica serves new connections immediately.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"

	"neat"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

func main() {
	tb, err := neat.TopologyConfig{
		Seed: 9, ClientStacks: 2,
		System: neat.SystemConfig{Replicas: 2, Kind: neat.MultiComponent},
	}.Build()
	if err != nil {
		panic(err)
	}
	net, server, client := tb.Net, tb.Server, tb.Client
	sys, clisys := tb.System, tb.ClientSystem

	// Server app: accepts and holds connections, echoing heartbeats.
	srv := newHolder(server.AppThread(7), sys.SyscallProc(), true)
	srv.proc.Deliver("listen")
	net.Sim.RunFor(sim.Millisecond)

	// Client app: open 12 long-lived connections and heartbeat on them.
	cli := newHolder(client.AppThread(8), clisys.SyscallProc(), false)
	for i := 0; i < 12; i++ {
		cli.proc.Deliver("connect")
	}
	net.Sim.RunFor(200 * sim.Millisecond)

	r0, r1 := sys.Replicas()[0], sys.Replicas()[1]
	fmt.Printf("established: %d connections — replica 0 owns %d, replica 1 owns %d\n",
		cli.open, r0.TCP().NumConns(), r1.TCP().NumConns())

	fmt.Println("\n-- fault 1: crashing the IP process of replica 0 (stateless component)")
	r0.EntryProc().Crash(sim.ErrKilled)
	net.Sim.RunFor(300 * sim.Millisecond)
	st := sys.Stats()
	fmt.Printf("   recoveries=%d transparent=%d connections lost=%d\n",
		st.Recoveries, st.TransparentRecov, st.ConnectionsLost)
	fmt.Printf("   heartbeats still flowing: %d echoes so far, %d connections open\n",
		cli.echoes, cli.open)

	fmt.Println("\n-- fault 2: crashing the TCP process of replica 0 (the stateful component)")
	lost := r0.TCP().NumConns()
	r0.SockProc().Crash(sim.ErrKilled)
	net.Sim.RunFor(300 * sim.Millisecond)
	st = sys.Stats()
	fmt.Printf("   recoveries=%d tcp-state-lost=%d connections lost=%d (replica 0 held %d)\n",
		st.Recoveries, st.TCPStateLost, st.ConnectionsLost, lost)
	fmt.Printf("   replica 1 untouched: still owns %d connections\n", r1.TCP().NumConns())

	fmt.Println("\n-- new connections after recovery land on both replicas again")
	for i := 0; i < 6; i++ {
		cli.proc.Deliver("connect")
	}
	net.Sim.RunFor(300 * sim.Millisecond)
	fmt.Printf("   open connections: %d (replica 0: %d, replica 1: %d)\n",
		cli.open, sys.Replicas()[0].TCP().NumConns(), r1.TCP().NumConns())
	fmt.Printf("\nASLR: replica 0's address-space seed changed across respawn (re-randomization, §3.8)\n")
}

// holder is a minimal app that opens/accepts long-lived heartbeat conns.
type holder struct {
	proc   *sim.Proc
	lib    *socketlib.Lib
	open   int
	echoes int
}

func newHolder(th *sim.HWThread, syscall *sim.Proc, isSrv bool) *holder {
	h := &holder{}
	h.proc = sim.NewProc(th, "holder", h, sim.ProcConfig{})
	h.lib = socketlib.New(h.proc, syscall, ipc.DefaultCosts())
	return h
}

func (h *holder) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(300)
	if h.lib.HandleEvent(ctx, msg) {
		return
	}
	switch msg {
	case "listen":
		ln := h.lib.Listen(ctx, 9000, 64)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data) // echo heartbeat
				}
			}
		}
	case "connect":
		s := h.lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 9000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err != nil {
				return
			}
			h.open++
			h.heartbeat(ctx, s)
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			h.echoes++
			ctx.TimerAfter(10*sim.Millisecond, s)
		}
		s.OnClosed = func(ctx *sim.Context, reset bool, err error) { h.open-- }
	default:
		if s, ok := msg.(*socketlib.Socket); ok {
			h.heartbeat(ctx, s)
		}
	}
}

func (h *holder) heartbeat(ctx *sim.Context, s *socketlib.Socket) {
	s.Send(ctx, []byte("ping"))
}
