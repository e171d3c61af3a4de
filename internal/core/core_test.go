package core_test

import (
	"testing"

	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// srvApp is a minimal server application: one listener that echoes data
// and records lifecycle events.
type srvApp struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	ln   *socketlib.Listener

	ready    bool
	accepted int
	failures int // sockets closed by reset / replica failure
	echoed   int
}

func newSrvApp(th *sim.HWThread, syscall *sim.Proc) *srvApp {
	a := &srvApp{}
	a.proc = sim.NewProc(th, "webapp", a, sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, syscall, ipc.DefaultCosts())
	return a
}

func (a *srvApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(400)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	if msg == "closeListener" && a.ln != nil {
		a.ln.Close(ctx)
		return
	}
	if msg == "listen" {
		ln := a.lib.Listen(ctx, 80, 128)
		a.ln = ln
		ln.OnReady = func(ctx *sim.Context, err error) { a.ready = err == nil }
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			a.accepted++
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					a.echoed++
					s.Send(ctx, data)
				}
				if eof {
					s.Close(ctx)
				}
			}
			s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
				if reset {
					a.failures++
				}
			}
		}
	}
}

// cliApp opens one connection per "go" message, sends a probe, waits for
// the echo and closes.
type cliApp struct {
	proc     *sim.Proc
	lib      *socketlib.Lib
	server   *testbed.Host
	done     int
	failed   int
	resets   int
	inflight int
}

func newCliApp(th *sim.HWThread, syscall *sim.Proc, server *testbed.Host) *cliApp {
	a := &cliApp{server: server}
	a.proc = sim.NewProc(th, "cliapp", a, sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, syscall, ipc.DefaultCosts())
	return a
}

func (a *cliApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(400)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	if msg == "go" {
		a.inflight++
		s := a.lib.Connect(ctx, a.server.IP, 80)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err != nil {
				a.failed++
				a.inflight--
				return
			}
			s.Send(ctx, []byte("probe-probe-probe"))
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			if len(data) > 0 {
				s.Close(ctx)
				a.done++
				a.inflight--
			}
		}
		s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
			if reset {
				a.resets++
				a.inflight--
			}
		}
	}
}

// bed builds: AMD server with a NEaT system + one app, client host with 2
// stacks + one client app.
type bed struct {
	net    *testbed.Net
	server *testbed.Host
	client *testbed.Host
	sys    *core.System
	clisys *core.System
	app    *srvApp
	cli    *cliApp
}

func newBed(t *testing.T, kind stack.Kind, slots [][]testbed.ThreadLoc, initial int) *bed {
	t.Helper()
	return listeningBed(t, 7, testbed.NEaTConfig{
		Kind: kind, Slots: slots, Syscall: testbed.ThreadLoc{Core: 1},
		InitialReplicas: initial,
	})
}

// bootBed boots the two-machine bed on seed: an AMD server with one NIC
// queue per slot running cfg, and a client host with 2 stacks.
func bootBed(t *testing.T, seed int64, cfg testbed.NEaTConfig) *bed {
	t.Helper()
	tb, err := testbed.NewBed(sim.New(seed), testbed.BedConfig{
		Server: testbed.AMD.Host(len(cfg.Slots)), NEaT: cfg, ClientStacks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &bed{net: tb.Net, server: tb.Server, client: tb.Client, sys: tb.NEaT, clisys: tb.CliSys}
}

// listeningBed is bootBed plus the server app listening on the server's
// last core and the client app on the client's last core.
func listeningBed(t *testing.T, seed int64, cfg testbed.NEaTConfig) *bed {
	t.Helper()
	b := bootBed(t, seed, cfg)
	b.app = newSrvApp(b.server.AppThread(b.server.Machine.NumCores()-1), b.sys.SyscallProc())
	b.cli = newCliApp(b.client.AppThread(b.client.Machine.NumCores()-1), b.clisys.SyscallProc(), b.server)
	b.app.proc.Deliver("listen")
	b.net.Sim.RunFor(sim.Millisecond)
	if !b.app.ready {
		t.Fatal("listen never became ready")
	}
	return b
}

func (b *bed) connect(n int) {
	for i := 0; i < n; i++ {
		b.cli.proc.Deliver("go")
	}
}

func TestConnectionsSpreadAcrossReplicas(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 3), 3)
	b.connect(30)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 30 {
		t.Fatalf("done=%d failed=%d resets=%d", b.cli.done, b.cli.failed, b.cli.resets)
	}
	if b.app.accepted != 30 {
		t.Fatalf("accepted=%d", b.app.accepted)
	}
	used := 0
	for _, r := range b.sys.Replicas() {
		if r.TCP().Stats().AcceptedConns > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("replicas used = %d, want >= 2", used)
	}
	if b.sys.Stats().FiltersInstalled == 0 {
		t.Fatal("no NIC filters installed")
	}
	// All connections closed: filters removed, PCBs drained.
	b.net.Sim.RunFor(2 * sim.Second)
	if got := b.sys.TotalConns(); got != 0 {
		t.Fatalf("PCBs leaked: %d", got)
	}
}

func TestSingleReplicaCrashRecovery(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 2), 2)
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("warmup failed: %d", b.cli.done)
	}

	// Open long-lived connections (server waits for data that never
	// comes), then crash replica 0.
	holder := newHolderApp(b)
	for i := 0; i < 8; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(100 * sim.Millisecond)
	if holder.open == 0 {
		t.Fatal("no held connections")
	}
	victim := b.sys.Replicas()[0]
	held := victim.TCP().NumConns()
	if held == 0 {
		victim = b.sys.Replicas()[1]
		held = victim.TCP().NumConns()
	}
	victim.Procs()[0].Crash(sim.ErrKilled)
	b.net.Sim.RunFor(100 * sim.Millisecond)

	st := b.sys.Stats()
	if st.Recoveries != 1 || st.TCPStateLost != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if int(st.ConnectionsLost) != held {
		t.Fatalf("lost %d, held %d", st.ConnectionsLost, held)
	}
	// The server application owns the lost sockets; its library observes
	// the channel teardown. (The remote client sees silence, like a real
	// peer of a crashed host.)
	if b.app.failures == 0 {
		t.Fatal("server app never told about lost connections")
	}
	if b.app.failures != held {
		t.Fatalf("server app saw %d failures, want %d", b.app.failures, held)
	}

	// The system serves new connections again, on both replicas.
	before := b.cli.done
	b.connect(20)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != before+20 {
		t.Fatalf("post-recovery connects: done=%d want=%d (failed=%d resets=%d)",
			b.cli.done, before+20, b.cli.failed, b.cli.resets)
	}
	usedAfter := 0
	for _, r := range b.sys.Replicas() {
		if r.TCP().Stats().AcceptedConns > 0 {
			usedAfter++
		}
	}
	if usedAfter != 2 {
		t.Fatalf("recovered replica not serving: used=%d", usedAfter)
	}
}

// holderApp opens connections and never sends, keeping them established.
type holderApp struct {
	proc     *sim.Proc
	lib      *socketlib.Lib
	server   *testbed.Host
	socks    []*socketlib.Socket
	open     int
	failures int
}

func newHolderApp(b *bed) *holderApp {
	a := &holderApp{server: b.server}
	a.proc = sim.NewProc(b.client.AppThread(b.client.Machine.NumCores()-2), "holder", a,
		sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, b.clisys.SyscallProc(), ipc.DefaultCosts())
	return a
}

func (a *holderApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(200)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	switch msg {
	case "hold":
		s := a.lib.Connect(ctx, a.server.IP, 80)
		a.socks = append(a.socks, s)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				a.open++
			}
		}
		s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
			a.failures++
			a.open--
		}
	case "abortAll":
		for _, s := range a.socks {
			s.OnClosed = nil // intentional teardown, not a failure
			s.Abort(ctx)
		}
		a.socks = nil
	}
}

func TestMultiComponentTransparentIPRecovery(t *testing.T) {
	b := newBed(t, stack.Multi, testbed.MultiSlots(2, 2), 2)
	holder := newHolderApp(b)
	for i := 0; i < 6; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	if holder.open != 6 {
		t.Fatalf("held=%d", holder.open)
	}
	victim := b.sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = b.sys.Replicas()[1]
	}
	connsBefore := victim.TCP().NumConns()
	// Crash the stateless IP process.
	victim.EntryProc().Crash(sim.ErrKilled)
	b.net.Sim.RunFor(200 * sim.Millisecond)

	st := b.sys.Stats()
	if st.Recoveries != 1 || st.TransparentRecov != 1 || st.TCPStateLost != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if holder.failures != 0 {
		t.Fatalf("transparent recovery lost %d connections", holder.failures)
	}
	if victim.TCP().NumConns() != connsBefore {
		t.Fatalf("TCP state lost: %d -> %d", connsBefore, victim.TCP().NumConns())
	}
	// Connections still pass traffic after IP restart: echo works.
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("post-recovery traffic: done=%d failed=%d resets=%d",
			b.cli.done, b.cli.failed, b.cli.resets)
	}
}

func TestMultiComponentTCPCrashLosesOnlyThatReplica(t *testing.T) {
	b := newBed(t, stack.Multi, testbed.MultiSlots(2, 2), 2)
	holder := newHolderApp(b)
	for i := 0; i < 10; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	r0, r1 := b.sys.Replicas()[0], b.sys.Replicas()[1]
	if r0.TCP().NumConns() == 0 || r1.TCP().NumConns() == 0 {
		t.Skip("seed put all connections on one replica")
	}
	lost := r0.TCP().NumConns()
	surviving := r1.TCP().NumConns()
	r0.SockProc().Crash(sim.ErrKilled)
	b.net.Sim.RunFor(200 * sim.Millisecond)

	st := b.sys.Stats()
	if st.TCPStateLost != 1 || int(st.ConnectionsLost) != lost {
		t.Fatalf("stats: %+v (lost=%d)", st, lost)
	}
	if r1.TCP().NumConns() != surviving {
		t.Fatalf("crash leaked into the other replica: %d -> %d",
			surviving, r1.TCP().NumConns())
	}
	if b.app.failures != lost {
		t.Fatalf("server app saw %d failures, want %d", b.app.failures, lost)
	}
	if holder.failures != 0 {
		t.Fatal("remote client should see silence, not resets")
	}
}

func TestScaleUpAndLazyScaleDown(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 3), 1)
	if b.sys.NumActive() != 1 {
		t.Fatalf("active=%d", b.sys.NumActive())
	}
	// Overload signal → scale up.
	if _, err := b.sys.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if b.sys.NumActive() != 2 {
		t.Fatalf("active after up=%d", b.sys.NumActive())
	}
	// Hold connections so the later scale-down must be lazy.
	holder := newHolderApp(b)
	for i := 0; i < 16; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	r2 := b.sys.Replicas()[1]
	if r2.TCP().Stats().AcceptedConns == 0 {
		t.Fatal("scaled-up replica got no connections (listen not replayed?)")
	}

	if err := b.sys.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	states := b.sys.SlotStates()
	if states[1] != core.SlotTerminating {
		t.Fatalf("slot states after down: %v", states)
	}
	// Existing connections on the terminating replica keep working; no new
	// ones arrive there. Close all held conns → replica collected.
	if holder.failures != 0 {
		t.Fatalf("scale-down broke %d connections", holder.failures)
	}
	// The holder never closes; crash the client holder app to RST its
	// conns... instead, close via aborting from client side is complex —
	// simply verify lazy GC by waiting: connections are idle and stay, so
	// replica must still be terminating.
	b.net.Sim.RunFor(100 * sim.Millisecond)
	if b.sys.SlotStates()[1] != core.SlotTerminating {
		t.Fatal("terminating replica collected while connections alive")
	}
	// Now drop the held connections (client aborts) and watch the GC.
	holder.proc.Deliver("abortAll")
	b.net.Sim.RunFor(500 * sim.Millisecond)
	_ = r2
	if b.sys.SlotStates()[1] != core.SlotEmpty {
		t.Fatalf("lazy termination never collected: %v (conns=%d)",
			b.sys.SlotStates(), b.sys.TotalConns())
	}
	if b.sys.Stats().ReplicasGarbage != 1 {
		t.Fatalf("stats: %+v", b.sys.Stats())
	}
}

func TestASLRReRandomizationAcrossRecovery(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 1), 1)
	r := b.sys.Replicas()[0]
	seed1 := r.Procs()[0].ASLRSeed
	r.Procs()[0].Crash(sim.ErrKilled)
	b.net.Sim.RunFor(10 * sim.Millisecond)
	seed2 := b.sys.Replicas()[0].Procs()[0].ASLRSeed
	if seed1 == seed2 {
		t.Fatal("replica respawned with identical address-space layout")
	}
}
