package core_test

import (
	"testing"

	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// TestCheckpointedRecoveryKeepsConnections enables checkpoint-based
// stateful recovery: connections survive a TCP crash, the applications
// are rehomed to the new process, and traffic continues.
func TestCheckpointedRecoveryKeepsConnections(t *testing.T) {
	b := bootBed(t, 21, core.Config{
		Kind:               stack.Multi,
		Slots:              testbed.MultiSlots(2, 2),
		Syscall:            core.ThreadLoc{Core: 1},
		CheckpointInterval: 10 * sim.Millisecond,
	})
	n, server, client, sys, clisys := b.net, b.server, b.client, b.sys, b.clisys

	// Echo server + clients doing periodic request/response on held conns.
	b.app = newSrvApp(server.AppThread(7), sys.SyscallProc())
	b.cli = newCliApp(client.AppThread(7), clisys.SyscallProc(), server)
	b.app.proc.Deliver("listen")
	n.Sim.RunFor(sim.Millisecond)
	holder := newHolderApp(b)
	for i := 0; i < 10; i++ {
		holder.proc.Deliver("hold")
	}
	n.Sim.RunFor(60 * sim.Millisecond) // several checkpoints elapse
	if holder.open != 10 {
		t.Fatalf("held=%d", holder.open)
	}
	if sys.Stats().Checkpoints < 4 {
		t.Fatalf("checkpoints=%d", sys.Stats().Checkpoints)
	}

	victim := sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = sys.Replicas()[1]
	}
	held := victim.TCP().NumEstablished()
	victim.SockProc().Crash(sim.ErrKilled)
	n.Sim.RunFor(200 * sim.Millisecond)

	st := sys.Stats()
	if st.TCPStateLost != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if int(st.ConnectionsRestored) < held {
		t.Fatalf("restored %d of %d", st.ConnectionsRestored, held)
	}
	if st.ConnectionsLost != 0 {
		t.Fatalf("stateful recovery lost %d connections", st.ConnectionsLost)
	}
	if b.app.failures != 0 {
		t.Fatalf("server app saw %d failures despite checkpointing", b.app.failures)
	}
	if victim.TCP().NumEstablished() < held {
		t.Fatalf("restored engine holds %d, want >= %d", victim.TCP().NumEstablished(), held)
	}

	// Traffic still flows: echo round-trips on fresh connections AND the
	// restored listener, whose accepts must name the new TCP process.
	accepted := victim.TCP().Stats().AcceptedConns
	b.connect(10)
	n.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("post-restore echo: done=%d failed=%d resets=%d",
			b.cli.done, b.cli.failed, b.cli.resets)
	}
	if victim.TCP().Stats().AcceptedConns == accepted {
		t.Fatal("no post-restore connection reached the restored listener")
	}

	// Events of the restored connections name the new TCP process as well:
	// the server application hears every held connection reset.
	resets := b.app.failures
	holder.proc.Deliver("abortAll")
	n.Sim.RunFor(10 * sim.Millisecond)
	if got := b.app.failures - resets; got != 10 {
		t.Fatalf("server heard %d of 10 held connections reset", got)
	}
}

// TestListenerCloseEndToEnd closes a listening socket through the library:
// subsequent connects are refused and the listen is no longer replayed to
// recovered replicas.
func TestListenerCloseEndToEnd(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 2))
	b.connect(4)
	b.net.Sim.RunFor(sim.Second)
	if b.cli.done != 4 {
		t.Fatalf("warmup: %d", b.cli.done)
	}
	b.app.proc.Deliver("closeListener")
	b.net.Sim.RunFor(10 * sim.Millisecond)
	b.connect(3)
	b.net.Sim.RunFor(sim.Second)
	if b.cli.resets != 3 && b.cli.failed != 3 {
		t.Fatalf("connects to a closed listener succeeded: done=%d resets=%d failed=%d",
			b.cli.done, b.cli.resets, b.cli.failed)
	}
	// A crashed replica must not resurrect the closed listener.
	b.sys.Replicas()[0].Procs()[0].Crash(sim.ErrKilled)
	b.net.Sim.RunFor(50 * sim.Millisecond)
	before := b.cli.done
	b.connect(2)
	b.net.Sim.RunFor(sim.Second)
	if b.cli.done != before {
		t.Fatalf("closed listener replayed after recovery: done=%d", b.cli.done)
	}
}

// TestUDPThroughSyscallServer binds a UDP socket via the SYSCALL server
// and exchanges datagrams with a remote peer through the full path.
func TestUDPThroughSyscallServer(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 1))
	var srvGot, cliGot []string
	srvU := newUDPApp(b.server.AppThread(9), b.sys.SyscallProc(), &srvGot, true)
	srvU.proc.Deliver(uint16(5353))
	b.net.Sim.RunFor(2 * sim.Millisecond)
	if srvU.sock == nil || srvU.sock.Port != 5353 {
		t.Fatal("server UDP bind failed")
	}
	cliU := newUDPApp(b.client.AppThread(9), b.clisys.SyscallProc(), &cliGot, false)
	cliU.dst = b.server.IP
	cliU.proc.Deliver(uint16(0))
	b.net.Sim.RunFor(2 * sim.Millisecond)
	cliU.proc.Deliver("send")
	b.net.Sim.RunFor(50 * sim.Millisecond)
	if len(srvGot) != 1 || srvGot[0] != "ping" {
		t.Fatalf("server got %v", srvGot)
	}
	if len(cliGot) != 1 || cliGot[0] != "re:ping" {
		t.Fatalf("client got %v", cliGot)
	}
}

type udpApp struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	sock *socketlib.UDPSocket
	got  *[]string
	echo bool
	dst  proto.Addr
}

func newUDPApp(th *sim.HWThread, syscall *sim.Proc, got *[]string, echo bool) *udpApp {
	a := &udpApp{got: got, echo: echo}
	a.proc = sim.NewProc(th, "udpapp", a, sim.ProcConfig{})
	a.lib = socketlib.New(a.proc, syscall, ipc.DefaultCosts())
	return a
}

func (a *udpApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(300)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case uint16:
		a.sock = a.lib.BindUDP(ctx, m)
		sock := a.sock
		a.sock.OnData = func(ctx *sim.Context, src proto.Addr, sport uint16, data []byte) {
			*a.got = append(*a.got, string(data))
			if a.echo {
				sock.SendTo(ctx, src, sport, append([]byte("re:"), data...))
			}
		}
	case string:
		if m == "send" && a.sock != nil {
			a.sock.SendTo(ctx, a.dst, 5353, []byte("ping"))
		}
	}
}
