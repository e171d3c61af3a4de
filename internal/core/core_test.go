package core_test

import (
	"slices"
	"testing"

	"neat/internal/bufpool"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/proto"
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
	closed   []stack.Handle // every EvClosed, in arrival order
}

func newSrvApp(th *sim.HWThread, syscall *sim.Proc) *srvApp {
	a := &srvApp{}
	a.proc = sim.NewProc(th, "webapp", a, sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, syscall, ipc.DefaultCosts())
	return a
}

func (a *srvApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(400)
	if ev, ok := msg.(*stack.EvClosed); ok {
		a.closed = append(a.closed, ev.Conn)
	}
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

func newBed(t *testing.T, kind stack.Kind, slots [][]core.ThreadLoc) *bed {
	t.Helper()
	return listeningBed(t, 7, core.Config{
		Kind: kind, Slots: slots, Syscall: core.ThreadLoc{Core: 1},
	})
}

// bootBed boots the two-machine bed on seed: an AMD server with one NIC
// queue per slot running cfg, and a client host with 2 stacks.
func bootBed(t *testing.T, seed int64, cfg core.Config) *bed {
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
func listeningBed(t *testing.T, seed int64, cfg core.Config) *bed {
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
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 3))
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
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 2))
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
	closed   []stack.Handle // every EvClosed, in arrival order
}

func newHolderApp(b *bed) *holderApp {
	return newHolderOn(b.client.AppThread(b.client.Machine.NumCores()-2), b.clisys, b.server)
}

// newHolderOn runs a holder on thread th over system sys, holding
// connections to target.
func newHolderOn(th *sim.HWThread, sys *core.System, target *testbed.Host) *holderApp {
	a := &holderApp{server: target}
	a.proc = sim.NewProc(th, "holder", a, sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, sys.SyscallProc(), ipc.DefaultCosts())
	return a
}

func (a *holderApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(200)
	if ev, ok := msg.(*stack.EvClosed); ok {
		a.closed = append(a.closed, ev.Conn)
	}
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
	b := newBed(t, stack.Multi, testbed.MultiSlots(2, 2))
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
	b := newBed(t, stack.Multi, testbed.MultiSlots(2, 2))
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
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 3))
	// Every slot boots active; retire two while they hold no connection,
	// which collects them at once and leaves slots 1 and 2 empty.
	for i := 0; i < 2; i++ {
		if err := b.sys.ScaleDown(); err != nil {
			t.Fatal(err)
		}
	}
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
	if states[1].String() != "terminating" {
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
	if b.sys.SlotStates()[1].String() != "terminating" {
		t.Fatal("terminating replica collected while connections alive")
	}
	// Now drop the held connections (client aborts) and watch the GC.
	holder.proc.Deliver("abortAll")
	b.net.Sim.RunFor(500 * sim.Millisecond)
	_ = r2
	if b.sys.SlotStates()[1].String() != "empty" {
		t.Fatalf("lazy termination never collected: %v (conns=%d)",
			b.sys.SlotStates(), b.sys.TotalConns())
	}
	if b.sys.Stats().ReplicasGarbage != 3 { // two at setup, one here
		t.Fatalf("stats: %+v", b.sys.Stats())
	}
}

func TestASLRReRandomizationAcrossRecovery(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 1))
	r := b.sys.Replicas()[0]
	seed1 := r.Procs()[0].ASLRSeed
	r.Procs()[0].Crash(sim.ErrKilled)
	b.net.Sim.RunFor(10 * sim.Millisecond)
	seed2 := b.sys.Replicas()[0].Procs()[0].ASLRSeed
	if seed1 == seed2 {
		t.Fatal("replica respawned with identical address-space layout")
	}
}

// lostRun is what one crash of TestLostConnectionsDeclaredOncePerSocket
// declared: the lost connections' IDs and each owning application's reset
// events, in arrival order.
type lostRun struct {
	ids         []uint64 // the owned connections at the crash
	embryos     int      // PCBs no socket owns
	wantSrv     []stack.Handle
	wantDialer  []stack.Handle
	srv, dialer []stack.Handle
	lost        uint64 // ConnectionsLost after the crash
	lostAfter   uint64 // ConnectionsLost after the quarantine
}

// crashHoldingReplica boots one single-component replica holding five
// accepted connections, three active opens and four embryonic SYN_RCVD
// PCBs, crashes it, and quarantines the slot before the respawn.
func crashHoldingReplica(t *testing.T) lostRun {
	t.Helper()
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 1))
	holder := newHolderApp(b)
	for i := 0; i < 5; i++ {
		holder.proc.Deliver("hold")
	}
	// Active opens: an application on the server dials a listener on the
	// client machine.
	peer := newSrvApp(b.client.AppThread(b.client.Machine.NumCores()-3), b.clisys.SyscallProc())
	peer.proc.Deliver("listen")
	b.net.Sim.RunFor(sim.Millisecond)
	dialer := newHolderOn(b.server.AppThread(b.server.Machine.NumCores()-2), b.sys, b.client)
	for i := 0; i < 3; i++ {
		dialer.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(100 * sim.Millisecond)
	if holder.open != 5 || dialer.open != 3 {
		t.Fatalf("held %d accepted and %d active connections, want 5 and 3", holder.open, dialer.open)
	}
	// Embryos: SYNs from addresses nobody answers for stay in SYN_RCVD.
	for i := 0; i < 4; i++ {
		tcp := proto.TCPHeader{SrcPort: uint16(5000 + i), DstPort: 80, Seq: 77, Flags: proto.TCPSyn, Window: 65535}
		b.server.NIC.Receive(proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&tcp, 0))[:0],
			proto.EthernetHeader{Dst: b.server.MAC, Src: b.client.MAC, Type: proto.EtherTypeIPv4},
			proto.IPv4Header{TTL: 64, Protocol: proto.ProtoTCP, Src: proto.IPv4(10, 0, 0, byte(50+i)), Dst: b.server.IP},
			tcp, nil))
	}
	b.net.Sim.RunFor(sim.Millisecond)

	r := b.sys.Replicas()[0]
	var run lostRun
	owned := r.OwnedConns()
	run.embryos = r.TCP().NumConns() - len(owned)
	for _, c := range owned {
		run.ids = append(run.ids, c.ID)
		switch app, h := r.ConnOwner(c); app {
		case b.app.proc:
			run.wantSrv = append(run.wantSrv, h)
		case dialer.proc:
			run.wantDialer = append(run.wantDialer, h)
		default:
			t.Fatalf("connection %d owned by %v", c.ID, app)
		}
	}
	srv0, dial0 := len(b.app.closed), len(dialer.closed)

	r.Procs()[0].Crash(sim.ErrKilled)
	b.net.Sim.RunFor(200 * sim.Microsecond) // the respawn waits 500 µs
	run.lost = b.sys.Stats().ConnectionsLost
	run.srv = append(run.srv, b.app.closed[srv0:]...)
	run.dialer = append(run.dialer, dialer.closed[dial0:]...)

	if err := b.sys.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	b.net.Sim.RunFor(10 * sim.Millisecond)
	run.lostAfter = b.sys.Stats().ConnectionsLost
	if len(b.app.closed)-srv0 != len(run.srv) || len(dialer.closed)-dial0 != len(run.dialer) {
		t.Fatalf("quarantine during the recovery sent %d more resets",
			len(b.app.closed)-srv0-len(run.srv)+len(dialer.closed)-dial0-len(run.dialer))
	}
	return run
}

// TestLostConnectionsDeclaredOncePerSocket checks the stateless recovery's
// accounting: a crashed replica loses exactly the connections a socket
// owns (embryos are no application's loss), each owning application gets
// one reset per connection in ConnID order, the order repeats run to run,
// and a quarantine before the respawn declares nothing a second time.
func TestLostConnectionsDeclaredOncePerSocket(t *testing.T) {
	run := crashHoldingReplica(t)
	if run.embryos != 4 {
		t.Fatalf("%d embryonic PCBs at the crash, want 4", run.embryos)
	}
	if len(run.ids) != 8 || run.lost != 8 {
		t.Fatalf("ConnectionsLost=%d over %d owned connections, want 8 and 8", run.lost, len(run.ids))
	}
	if !slices.IsSorted(run.ids) {
		t.Fatalf("owned connections out of ConnID order: %v", run.ids)
	}
	if !slices.Equal(run.srv, run.wantSrv) || !slices.Equal(run.dialer, run.wantDialer) {
		t.Fatalf("resets: server app %v want %v; dialer %v want %v",
			run.srv, run.wantSrv, run.dialer, run.wantDialer)
	}
	if run.lostAfter != run.lost {
		t.Fatalf("quarantine during the recovery counted %d more lost", run.lostAfter-run.lost)
	}
	again := crashHoldingReplica(t)
	if !slices.Equal(again.ids, run.ids) || !slices.Equal(again.srv, run.srv) ||
		!slices.Equal(again.dialer, run.dialer) {
		t.Fatalf("a second run declared differently: %+v then %+v", run, again)
	}
}
