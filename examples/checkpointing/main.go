// Checkpointing: the stateful-recovery alternative the paper discusses
// (§2.1, §6.6) but deliberately does not adopt.
//
// With CheckpointInterval set, every replica periodically snapshots its
// TCP state; after a TCP crash the new incarnation restores the snapshot
// and existing connections SURVIVE — at a run-time throughput cost and
// with an exposure window (anything newer than the snapshot is lost).
// This example crashes the same replica twice: once with stateless
// recovery, once with checkpointing, and prints the difference.
//
// Run with: go run ./examples/checkpointing
package main

import (
	"fmt"

	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

func main() {
	fmt.Println("replica crash with 12 held connections, two recovery strategies:")
	fmt.Println()
	for _, mode := range []struct {
		label    string
		interval sim.Time
	}{
		{"stateless recovery (the paper's design, §3.6)", 0},
		{"checkpointed recovery (10 ms interval)", 10 * sim.Millisecond},
	} {
		lost, restored, appFailures := run(mode.interval)
		fmt.Printf("%-48s lost=%d restored=%d app-visible failures=%d\n",
			mode.label, lost, restored, appFailures)
	}
	fmt.Println()
	fmt.Println("the price: see BenchmarkAblationCheckpointing (~20% throughput on a saturated replica)")
}

func run(interval sim.Time) (lost, restored uint64, appFailures int) {
	// CheckpointInterval is deliberately not a facade knob (the paper does
	// not adopt it), so this example assembles its world on the testbed.
	net := testbed.New(21)
	server := testbed.DefaultAMDHost(net, 0, 8)
	client := testbed.DefaultClientHost(net, 1, 2)
	sys, err := server.BuildNEaT(client, testbed.NEaTConfig{
		Kind: stack.Multi, TCP: tcpeng.DefaultConfig(),
		Slots:              testbed.MultiSlots(2, 2),
		Syscall:            testbed.ThreadLoc{Core: 1},
		CheckpointInterval: interval,
	})
	if err != nil {
		panic(err)
	}
	clisys, err := client.BuildClientSystem(server, 2, tcpeng.DefaultConfig())
	if err != nil {
		panic(err)
	}

	// Server app: accept and hold.
	failures := 0
	srv := newApp(server.AppThread(7), sys.SyscallProc())
	srv.onStart = func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 9000, 64)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
				if reset {
					failures++
				}
			}
		}
	}
	srv.proc.Deliver("start")
	net.Sim.RunFor(sim.Millisecond)

	// Client app: 12 long-lived connections.
	cli := newApp(client.AppThread(7), clisys.SyscallProc())
	cli.onStart = func(ctx *sim.Context, lib *socketlib.Lib) {
		for i := 0; i < 12; i++ {
			lib.Connect(ctx, server.IP, 9000)
		}
	}
	cli.proc.Deliver("start")
	net.Sim.RunFor(100 * sim.Millisecond) // connections up, checkpoints taken

	victim := sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = sys.Replicas()[1]
	}
	victim.SockProc().Crash(sim.ErrKilled)
	net.Sim.RunFor(300 * sim.Millisecond)

	st := sys.Stats()
	return st.ConnectionsLost, st.ConnectionsRestored, failures
}

// app is a minimal event-driven application shell.
type app struct {
	proc    *sim.Proc
	lib     *socketlib.Lib
	onStart func(*sim.Context, *socketlib.Lib)
}

func newApp(th *sim.HWThread, syscall *sim.Proc) *app {
	a := &app{}
	a.proc = sim.NewProc(th, "app", a, sim.ProcConfig{})
	a.lib = socketlib.New(a.proc, syscall, ipc.DefaultCosts())
	return a
}

func (a *app) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(300)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	if msg == "start" && a.onStart != nil {
		a.onStart(ctx, a.lib)
	}
}
