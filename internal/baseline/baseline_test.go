package baseline_test

import (
	"testing"

	"neat/internal/app"
	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

// pair is a baseline on an AMD host facing a NEaT client system on the
// peer host.
type pair struct {
	net    *testbed.Net
	server *testbed.Host
	client *testbed.Host
	sys    *baseline.System
	cli    *core.System
}

func bootPair(t *testing.T, cores, clientStacks int, tuning baseline.Tuning) pair {
	t.Helper()
	b, err := testbed.NewBed(sim.New(33), testbed.BedConfig{
		Server:       testbed.AMD.Host(cores),
		NEaT:         core.Config{TCP: tcpeng.DefaultConfig()},
		LinuxCores:   cores,
		LinuxTuning:  tuning,
		ClientStacks: clientStacks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pair{net: b.Net, server: b.Server, client: b.Client, sys: b.Linux, cli: b.CliSys}
}

// linuxBed: AMD host running the monolithic baseline with K cores, one
// lighttpd per core (own port, colocated with its kernel context), 12
// httperf processes on the client host, one per lighttpd port.
type linuxBed struct {
	pair
	servers []*app.HTTPD
	gens    []*app.Loadgen
}

func buildLinuxBed(t *testing.T, cores int, tuning baseline.Tuning, conns, reqPerConn, fileSize int) *linuxBed {
	t.Helper()
	b := &linuxBed{pair: bootPair(t, cores, cores, tuning)}
	for i := 0; i < cores; i++ {
		// lighttpd i colocated with kernel context i, own port (§6.1).
		h := app.NewHTTPD(b.server.Machine.Thread(i, 0), "lighttpd", b.sys.KernelProc(i),
			ipc.DefaultCosts(), app.HTTPDConfig{
				Port:  uint16(8000 + i),
				Files: map[string]int{"/file": fileSize},
			})
		h.Start()
		b.servers = append(b.servers, h)
	}
	b.net.Sim.RunFor(sim.Millisecond)
	for i, h := range b.servers {
		if !h.Ready() {
			t.Fatalf("lighttpd %d not ready", i)
		}
	}
	for i := 0; i < cores; i++ {
		lg := app.NewLoadgen(b.client.AppThread(2+cores+i), "httperf", b.cli.SyscallProc(),
			ipc.DefaultCosts(), app.LoadgenConfig{
				Target: b.server.IP, Port: uint16(8000 + i), URI: "/file",
				Conns: conns, ReqPerConn: reqPerConn,
			})
		b.gens = append(b.gens, lg)
	}
	return b
}

func (b *linuxBed) run(warm, window sim.Time) (krps float64) {
	for _, g := range b.gens {
		g.Start()
	}
	b.net.Sim.RunFor(warm)
	for _, g := range b.gens {
		g.BeginMeasure()
	}
	b.net.Sim.RunFor(window)
	var good uint64
	for _, g := range b.gens {
		good += g.GoodResponses()
	}
	return float64(good) / window.Seconds() / 1000
}

func TestBaselineServesTraffic(t *testing.T) {
	b := buildLinuxBed(t, 4, baseline.Tuning{SchedDeadline: true, Ethtool: true,
		IRQAffinity: true, RxAffinity: true, ServerPinning: true}, 8, 100, 20)
	rate := b.run(20*sim.Millisecond, 60*sim.Millisecond)
	if rate < 10 {
		t.Fatalf("baseline rate = %.1f krps — too low", rate)
	}
	var errs uint64
	for _, g := range b.gens {
		errs += g.Stats().ConnErrors
	}
	if errs != 0 {
		t.Fatalf("errors=%d", errs)
	}
	if b.sys.Stats().LockedOps == 0 {
		t.Fatal("lock model never charged")
	}
	if b.sys.Stats().IRQs == 0 {
		t.Fatal("per-queue IRQ path unused")
	}
}

func TestBaselineTuningLadderImproves(t *testing.T) {
	defaults := buildLinuxBed(t, 4, baseline.Tuning{}, 8, 100, 20)
	rDefaults := defaults.run(20*sim.Millisecond, 60*sim.Millisecond)

	full := buildLinuxBed(t, 4, baseline.Tuning{SchedDeadline: true, Ethtool: true,
		IRQAffinity: true, RxAffinity: true, ServerPinning: true}, 8, 100, 20)
	rFull := full.run(20*sim.Millisecond, 60*sim.Millisecond)

	if rFull <= rDefaults {
		t.Fatalf("tuning did not help: defaults=%.1f full=%.1f", rDefaults, rFull)
	}
	// Table 1 shows roughly +22 % from defaults to full tuning.
	gain := rFull / rDefaults
	if gain < 1.05 || gain > 1.6 {
		t.Fatalf("tuning gain %.2fx outside plausible band", gain)
	}
}

func TestBaselineSharedListenerAndEngine(t *testing.T) {
	b := buildLinuxBed(t, 2, baseline.Tuning{ServerPinning: true, IRQAffinity: true}, 4, 10, 20)
	_ = b.run(10*sim.Millisecond, 30*sim.Millisecond)
	// All connections live in ONE engine (shared everything).
	if b.sys.TCP().Stats().AcceptedConns == 0 {
		t.Fatal("no accepts")
	}
	if b.sys.TCP().NumConns() == 0 {
		t.Fatal("no live conns in the shared engine")
	}
}

func TestBaselineConfigValidation(t *testing.T) {
	if _, err := baseline.New(baseline.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

var (
	defaultTuning = baseline.Tuning{}
	pinnedTuning  = baseline.Tuning{IRQAffinity: true, ServerPinning: true}
)

// TestBaselineUDPEveryContext: a resolver bound through kernel context 0
// hears every query, whichever kernel context the NIC's RSS hands the
// datagram to — the event names the context the socket was bound on.
func TestBaselineUDPEveryContext(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tuning baseline.Tuning
	}{{"defaults", defaultTuning}, {"pinned", pinnedTuning}} {
		tuning := tc.tuning
		t.Run(tc.name, func(t *testing.T) {
			p := bootPair(t, 4, 1, tuning)
			srv := app.NewDNSServer(p.server.Machine.Thread(0, 0), "resolver", p.sys.KernelProc(0),
				ipc.DefaultCosts(), app.DNSServerConfig{})
			srv.Start()
			var clients []*app.DNSClient
			for i := 0; i < 8; i++ {
				c := app.NewDNSClient(p.client.AppThread(3+i), "dig", p.cli.SyscallProc(),
					ipc.DefaultCosts(), app.DNSClientConfig{Target: p.server.IP})
				c.Start()
				clients = append(clients, c)
			}
			p.net.Sim.RunFor(50 * sim.Millisecond)
			for _, c := range clients {
				c.Stop()
			}
			p.net.Sim.RunFor(5 * sim.Millisecond)

			var sent, answered uint64
			for _, c := range clients {
				sent += c.Stats().QueriesSent
				answered += c.Stats().ResponsesOK
			}
			st := srv.Stats()
			t.Logf("queries sent %d, seen by the server %d, answered %d", sent, st.Queries, answered)
			if sent == 0 || st.Queries != sent || answered != sent {
				t.Fatalf("server saw %d and clients got %d answers of %d queries", st.Queries, answered, sent)
			}
		})
	}
}

// The opener's request and the length of an HTTPD's keep-alive reply to it
// when "/f" is a 20-byte file.
const (
	openerRequest  = "GET /f HTTP/1.1\r\n\r\n"
	openerReplyLen = len("HTTP/1.1 200 OK\r\nContent-Length: 20\r\nConnection: keep-alive\r\n\r\n") + 20
)

// opener speaks the socket protocol to one kernel context: it opens conns
// connections to a peer port, sends one GET on each, closes once the reply
// is in, and records the Stack every EvConnected names.
type opener struct {
	proc   *sim.Proc
	kernel *ipc.Conn
	peer   proto.Addr
	port   uint16
	conns  int

	stacks    []*sim.Proc
	errs      []error
	connected int
	closed    int
	replied   map[stack.Handle]int
}

func newOpener(th *sim.HWThread, kernel *sim.Proc, peer proto.Addr, port uint16, conns int) *opener {
	o := &opener{kernel: ipc.New(kernel, ipc.DefaultCosts()), peer: peer, port: port, conns: conns,
		replied: map[stack.Handle]int{}}
	o.proc = sim.NewProc(th, "opener", o, sim.ProcConfig{Component: "app"})
	return o
}

func (o *opener) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case string: // "start"
		for i := 0; i < o.conns; i++ {
			o.kernel.Send(ctx, stack.OpConnect{App: o.proc, ReqID: uint64(i + 1), Addr: o.peer, Port: o.port})
		}
	case stack.EvConnected:
		o.stacks = append(o.stacks, m.Stack)
		if m.Err != nil {
			o.errs = append(o.errs, m.Err)
			return
		}
		o.connected++
		o.kernel.Send(ctx, stack.NewOpSend(ctx.Sim, stack.OpSend{Conn: m.Conn, Data: []byte(openerRequest)}))
	case *stack.EvData:
		o.replied[m.Conn] += len(m.Data)
		if len(m.Data) > 0 && o.replied[m.Conn] == openerReplyLen {
			o.kernel.Send(ctx, stack.NewOpClose(ctx.Sim, m.Conn, false))
		}
		m.Recycle()
	case *stack.EvClosed:
		o.closed++
		m.Recycle()
	}
}

// TestBaselineActiveOpenNamesItsContext: connections opened through kernel
// context 1 are named by context 1 in every EvConnected, although the NIC
// spreads their receive processing over all four contexts.
func TestBaselineActiveOpenNamesItsContext(t *testing.T) {
	p := bootPair(t, 4, 1, pinnedTuning)
	web := app.NewHTTPD(p.client.AppThread(3), "web", p.cli.SyscallProc(), ipc.DefaultCosts(),
		app.HTTPDConfig{Port: 80, Files: map[string]int{"/f": 20}})
	web.Start()
	p.net.Sim.RunFor(sim.Millisecond)
	if !web.Ready() {
		t.Fatal("web server not listening")
	}
	const conns = 8
	o := newOpener(p.server.Machine.Thread(1, 0), p.sys.KernelProc(1), p.client.IP, 80, conns)
	o.proc.Deliver("start")
	p.net.Sim.RunFor(20 * sim.Millisecond)

	if len(o.errs) != 0 || o.connected != conns || o.closed != conns {
		t.Fatalf("connected %d, closed %d of %d; errors %v", o.connected, o.closed, conns, o.errs)
	}
	if len(o.replied) != conns {
		t.Fatalf("%d of %d connections got a reply", len(o.replied), conns)
	}
	for id, n := range o.replied {
		if n != openerReplyLen {
			t.Fatalf("conn %d got %d of %d reply bytes", id, n, openerReplyLen)
		}
	}
	for i, s := range o.stacks {
		if s != p.sys.KernelProc(1) {
			t.Fatalf("event %d names %v, want kernel context 1", i, s)
		}
	}
	elsewhere := false
	for i := 0; i < p.sys.NumContexts(); i++ {
		if i != 1 && p.sys.KernelProc(i).Stats().Messages > 0 {
			elsewhere = true
		}
	}
	if !elsewhere {
		t.Fatal("every frame arrived on context 1; the test proves nothing")
	}
}

// TestBaselineRefusedConnect: a connect to a closed port resolves with an
// error naming the kernel context that ran it.
func TestBaselineRefusedConnect(t *testing.T) {
	p := bootPair(t, 4, 1, defaultTuning)
	o := newOpener(p.server.Machine.Thread(1, 0), p.sys.KernelProc(1), p.client.IP, 9, 1)
	o.proc.Deliver("start")
	p.net.Sim.RunFor(10 * sim.Millisecond)
	if o.connected != 0 || len(o.errs) != 1 {
		t.Fatalf("connected %d, errors %v: want one refused connect", o.connected, o.errs)
	}
	if o.stacks[0] != p.sys.KernelProc(1) {
		t.Fatalf("EvConnected names %v, want kernel context 1", o.stacks[0])
	}
}
