package stack

import (
	"bytes"
	"neat/internal/udpeng"
	"testing"

	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/wire"
)

var (
	srvMAC = proto.MAC{2, 0, 0, 0, 0, 1}
	cliMAC = proto.MAC{2, 0, 0, 0, 0, 2}
	srvIP  = proto.IPv4(10, 0, 0, 1)
	cliIP  = proto.IPv4(10, 0, 0, 2)
	nmask  = proto.IPv4(255, 255, 255, 0)
)

// rig is a complete two-machine network: server replicas behind a
// multi-queue NIC, one client replica behind its own NIC, 10G link.
type rig struct {
	s        *sim.Simulator
	link     *wire.Link
	srvNIC   *nicdev.NIC
	srvDrv   *nicdev.Driver
	cliNIC   *nicdev.NIC
	cliDrv   *nicdev.Driver
	replicas []*Replica
	client   *Replica
}

func ipCfg(addr proto.Addr, mac proto.MAC, peerIP proto.Addr, peerMAC proto.MAC) Config {
	return Config{
		IP: ipeng.Config{
			Addr: addr, Mask: nmask, MAC: mac,
			StaticARP: map[proto.Addr]proto.MAC{peerIP: peerMAC},
		},
		IPC:   ipc.DefaultCosts(),
		Costs: DefaultCosts(),
	}
}

func newRig(t *testing.T, kind Kind, nReplicas int, tcpCfg tcpeng.Config) *rig {
	t.Helper()
	s := sim.New(42)
	srv := sim.NewMachine(s, "srv", 12, 1, 1_900_000_000)
	cli := sim.NewMachine(s, "cli", 4, 1, 1_900_000_000)
	l := wire.NewLink(s)

	r := &rig{s: s, link: l}
	r.srvNIC = nicdev.NewNIC(s, "srvnic", srvMAC, l, 0, nReplicas)
	r.srvDrv = nicdev.NewDriver(srv.Thread(0, 0), "srvdrv", r.srvNIC, nicdev.DefaultDriverCosts())
	r.cliNIC = nicdev.NewNIC(s, "clinic", cliMAC, l, 1, 1)
	r.cliDrv = nicdev.NewDriver(cli.Thread(0, 0), "clidrv", r.cliNIC, nicdev.DefaultDriverCosts())

	threadsPerReplica := 1
	if kind == Multi {
		threadsPerReplica = 2
	}
	for i := 0; i < nReplicas; i++ {
		cfg := ipCfg(srvIP, srvMAC, cliIP, cliMAC)
		cfg.Kind = kind
		cfg.Name = "neat" + string(rune('0'+i))
		cfg.TCP = tcpCfg
		base := 1 + i*threadsPerReplica
		var threads []*sim.HWThread
		for j := 0; j < threadsPerReplica; j++ {
			threads = append(threads, srv.Thread(base+j, 0))
		}
		rep := NewReplica(threads, r.srvDrv.Proc(), cfg)
		r.srvDrv.BindQueue(i, rep.EntryProc())
		r.replicas = append(r.replicas, rep)
	}
	ccfg := ipCfg(cliIP, cliMAC, srvIP, srvMAC)
	ccfg.Name = "clistack"
	ccfg.TCP = tcpCfg
	r.client = NewReplica([]*sim.HWThread{cli.Thread(1, 0)}, r.cliDrv.Proc(), ccfg)
	r.cliDrv.BindQueue(0, r.client.EntryProc())
	return r
}

// echoServer is a minimal app: listens, echoes everything (unless sink is
// set), closes on EOF.
type echoServer struct {
	proc     *sim.Proc
	stack    *ipc.Conn
	sink     bool
	listened bool
	accepted int
	closed   int
	got      map[Handle][]byte
}

func newEchoServer(th *sim.HWThread, target *sim.Proc) *echoServer {
	a := &echoServer{got: map[Handle][]byte{}}
	a.proc = sim.NewProc(th, "echoSrv", a, sim.ProcConfig{Component: "app"})
	a.stack = ipc.New(target, ipc.DefaultCosts())
	return a
}

func (a *echoServer) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(500)
	switch m := msg.(type) {
	case string: // "listen"
		a.stack.Send(ctx, OpListen{App: a.proc, ReqID: 1, Port: 80, Backlog: 64})
	case EvListening:
		if m.Err == nil {
			a.listened = true
		}
	case *EvAccepted:
		a.accepted++
	case *EvData:
		// The event's chunk is this app's now; it is echoed by reference and
		// never recycled, which the ownership contract allows.
		a.got[m.Conn] = append(a.got[m.Conn], m.Data...)
		if len(m.Data) > 0 && !a.sink {
			a.stack.Send(ctx, NewOpSend(ctx.Sim, OpSend{Conn: m.Conn, Data: m.Data}))
		}
		if m.EOF {
			a.stack.Send(ctx, NewOpClose(ctx.Sim, m.Conn, false))
		}
	case *EvClosed:
		a.closed++
	}
}

// echoClient connects, sends a payload, collects the echo, then closes.
type echoClient struct {
	proc    *sim.Proc
	stack   *ipc.Conn
	payload []byte
	conn    Handle
	got     []byte
	done    bool
	fail    error
}

func newEchoClient(th *sim.HWThread, target *sim.Proc, payload []byte) *echoClient {
	a := &echoClient{payload: payload}
	a.proc = sim.NewProc(th, "echoCli", a, sim.ProcConfig{Component: "app"})
	a.stack = ipc.New(target, ipc.DefaultCosts())
	return a
}

func (a *echoClient) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(500)
	switch m := msg.(type) {
	case string: // "start"
		a.stack.Send(ctx, OpConnect{App: a.proc, ReqID: 7, Addr: srvIP, Port: 80})
	case EvConnected:
		if m.Err != nil {
			a.fail = m.Err
			return
		}
		a.conn = m.Conn
		a.stack.Send(ctx, NewOpSend(ctx.Sim, OpSend{Conn: m.Conn, Data: a.payload}))
	case *EvData:
		a.got = append(a.got, m.Data...)
		if len(a.got) >= len(a.payload) {
			a.stack.Send(ctx, NewOpClose(ctx.Sim, a.conn, false))
			a.done = true
		}
	}
}

func runEcho(t *testing.T, kind Kind) {
	t.Helper()
	r := newRig(t, kind, 1, tcpeng.DefaultConfig())
	cliM := r.s.Machines()[1]

	srvApp := newEchoServer(r.s.Machines()[0].Thread(5, 0), r.replicas[0].SockProc())
	payload := bytes.Repeat([]byte("neat-echo-"), 500) // 5 KB
	cliApp := newEchoClient(cliM.Thread(2, 0), r.client.SockProc(), payload)

	srvApp.proc.Deliver("listen")
	r.s.RunFor(sim.Millisecond)
	if !srvApp.listened {
		t.Fatal("listen failed")
	}
	cliApp.proc.Deliver("start")
	r.s.RunFor(500 * sim.Millisecond)

	if cliApp.fail != nil {
		t.Fatalf("connect failed: %v", cliApp.fail)
	}
	if !cliApp.done || !bytes.Equal(cliApp.got, payload) {
		t.Fatalf("echo incomplete: got %d of %d bytes (done=%v)",
			len(cliApp.got), len(payload), cliApp.done)
	}
	if srvApp.accepted != 1 {
		t.Fatalf("accepted=%d", srvApp.accepted)
	}
	// Full teardown: wait out TIME_WAIT.
	r.s.RunFor(sim.Second)
	if n := r.replicas[0].TCP().NumConns(); n != 0 {
		t.Fatalf("server PCBs leaked: %d", n)
	}
	if n := r.client.TCP().NumConns(); n != 0 {
		t.Fatalf("client PCBs leaked: %d", n)
	}
}

func TestEchoEndToEndSingle(t *testing.T) { runEcho(t, Single) }
func TestEchoEndToEndMulti(t *testing.T)  { runEcho(t, Multi) }

func TestMultiReplicaSteering(t *testing.T) {
	r := newRig(t, Single, 4, tcpeng.DefaultConfig())
	srvM, cliM := r.s.Machines()[0], r.s.Machines()[1]

	// Install NEaT manager hooks: exact filters per accepted connection.
	for qi, rep := range r.replicas {
		q := qi
		rep.OnConnEstablished = func(rr *Replica, c *tcpeng.Conn) {
			r.srvNIC.InstallFilter(c.InboundFlow(), q)
		}
		rep.OnConnRemoved = func(rr *Replica, c *tcpeng.Conn) {
			r.srvNIC.RemoveFilter(c.InboundFlow())
		}
	}

	// Listen on every replica (replicated subsockets, §3.3).
	apps := make([]*echoServer, 4)
	for i, rep := range r.replicas {
		apps[i] = newEchoServer(srvM.Thread(5+i, 0), rep.SockProc())
		apps[i].proc.Deliver("listen")
	}
	r.s.RunFor(sim.Millisecond)

	// 16 client connections spread by RSS.
	clients := make([]*echoClient, 16)
	for i := range clients {
		clients[i] = newEchoClient(cliM.Thread(2, 0), r.client.SockProc(), []byte("hello-from-client"))
		clients[i].proc.Deliver("start")
	}
	r.s.RunFor(sim.Second)

	totalAccepted, replicasUsed := 0, 0
	for i, app := range apps {
		totalAccepted += app.accepted
		if app.accepted > 0 {
			replicasUsed++
		}
		_ = i
	}
	if totalAccepted != 16 {
		t.Fatalf("accepted %d of 16", totalAccepted)
	}
	if replicasUsed < 2 {
		t.Fatalf("RSS did not spread: only %d replicas used", replicasUsed)
	}
	for i, c := range clients {
		if !c.done {
			t.Fatalf("client %d incomplete (got %d bytes)", i, len(c.got))
		}
	}
	if r.srvNIC.Stats().RxFiltered == 0 {
		t.Fatal("flow-director filters never matched")
	}
	// Filters are uninstalled as connections die.
	r.s.RunFor(sim.Second)
	if n := r.srvNIC.NumFilters(); n != 0 {
		t.Fatalf("filters leaked: %d", n)
	}
}

func TestReplicaCrashIsolatesOtherReplicas(t *testing.T) {
	r := newRig(t, Single, 2, tcpeng.DefaultConfig())
	srvM, cliM := r.s.Machines()[0], r.s.Machines()[1]
	for qi, rep := range r.replicas {
		q := qi
		rep.OnConnEstablished = func(rr *Replica, c *tcpeng.Conn) {
			r.srvNIC.InstallFilter(c.InboundFlow(), q)
		}
	}
	apps := []*echoServer{
		newEchoServer(srvM.Thread(5, 0), r.replicas[0].SockProc()),
		newEchoServer(srvM.Thread(6, 0), r.replicas[1].SockProc()),
	}
	for _, a := range apps {
		a.proc.Deliver("listen")
	}
	r.s.RunFor(sim.Millisecond)

	clients := make([]*echoClient, 8)
	big := bytes.Repeat([]byte("x"), 200_000)
	for i := range clients {
		clients[i] = newEchoClient(cliM.Thread(2, 0), r.client.SockProc(), big)
		clients[i].proc.Deliver("start")
	}
	r.s.RunFor(5 * sim.Millisecond) // connections established, transfers running
	if apps[0].accepted == 0 || apps[1].accepted == 0 {
		t.Skip("RSS put all connections on one replica for this seed")
	}

	// Crash replica 0 mid-transfer; unbind its queue like the driver does.
	r.replicas[0].Kill()
	r.srvDrv.BindQueue(0, nil)
	r.s.RunFor(2 * sim.Second)

	// Every client whose connection went to replica 1 must complete.
	doneCount := 0
	for _, c := range clients {
		if c.done {
			doneCount++
		}
	}
	if doneCount == 0 {
		t.Fatal("crash of one replica killed all connections")
	}
	if doneCount == len(clients) {
		t.Fatal("crash had no effect — test not exercising the failure")
	}
	if got := r.replicas[1].TCP().Stats().DataBytesOut; got == 0 {
		t.Fatal("surviving replica did no work")
	}
}

func TestUDPEndToEnd(t *testing.T) {
	r := newRig(t, Single, 1, tcpeng.DefaultConfig())
	srvM, cliM := r.s.Machines()[0], r.s.Machines()[1]

	type udpApp struct {
		proc  *sim.Proc
		stack *ipc.Conn
		id    uint64
		port  uint16
		got   []string
	}
	mkApp := func(th *sim.HWThread, target *sim.Proc, name string, echo bool) *udpApp {
		a := &udpApp{}
		a.stack = ipc.New(target, ipc.DefaultCosts())
		a.proc = sim.NewProc(th, name, sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
			ctx.Charge(300)
			switch m := msg.(type) {
			case uint16: // "bind to port m"
				a.stack.Send(ctx, OpUDPBind{App: a.proc, ReqID: 1, Port: m})
			case EvUDPBound:
				a.id, a.port = m.UDPID, m.Port
			case EvUDPData:
				a.got = append(a.got, string(m.Data))
				if echo {
					a.stack.Send(ctx, OpUDPSendTo{UDPID: a.id, Addr: m.Src, Port: m.SrcPort, Data: append([]byte("re:"), m.Data...)})
				}
			case []byte: // "send this to the server"
				a.stack.Send(ctx, OpUDPSendTo{UDPID: a.id, Addr: srvIP, Port: 5353, Data: m})
			}
		}), sim.ProcConfig{Component: "app"})
		return a
	}
	// UDP ops are handled by the entry (IP) process; for single-component
	// replicas that is the same process as SockProc.
	srvApp := mkApp(srvM.Thread(5, 0), r.replicas[0].EntryProc(), "udpsrv", true)
	cliApp := mkApp(cliM.Thread(2, 0), r.client.EntryProc(), "udpcli", false)
	srvApp.proc.Deliver(uint16(5353))
	cliApp.proc.Deliver(uint16(0)) // ephemeral
	r.s.RunFor(sim.Millisecond)
	if srvApp.port != 5353 || cliApp.port < 32768 {
		t.Fatalf("binds: srv=%d cli=%d", srvApp.port, cliApp.port)
	}
	cliApp.proc.Deliver([]byte("ping"))
	r.s.RunFor(50 * sim.Millisecond)
	if len(srvApp.got) != 1 || srvApp.got[0] != "ping" {
		t.Fatalf("server got %v", srvApp.got)
	}
	if len(cliApp.got) != 1 || cliApp.got[0] != "re:ping" {
		t.Fatalf("client got %v", cliApp.got)
	}
}

func TestReplicaAccessors(t *testing.T) {
	r := newRig(t, Multi, 1, tcpeng.DefaultConfig())
	rep := r.replicas[0]
	if rep.Kind() != Multi || rep.Kind().String() != "multi" {
		t.Fatal("kind")
	}
	if len(rep.Procs()) != 2 {
		t.Fatalf("procs=%d", len(rep.Procs()))
	}
	if rep.EntryProc() == rep.SockProc() {
		t.Fatal("multi replica should split entry and sock procs")
	}
	if rep.IP() == nil || rep.UDP() == nil || rep.TCP() == nil {
		t.Fatal("accessors nil")
	}
	if rep.Dead() {
		t.Fatal("fresh replica dead")
	}
	rep.Kill()
	if !rep.Dead() {
		t.Fatal("killed replica alive")
	}
	if rep.String() == "" || Single.String() != "single" {
		t.Fatal("strings")
	}
}

// IP returns the replica's IP engine.
func (r *Replica) IP() *ipeng.Engine { return r.iph.ip }

// UDP returns the replica's UDP engine.
func (r *Replica) UDP() *udpeng.Engine { return r.iph.udp }

// Dead reports whether any process of the replica has died.
func (r *Replica) Dead() bool {
	for _, p := range r.procs {
		if p.Dead() {
			return true
		}
	}
	return r.dead
}
