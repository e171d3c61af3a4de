package app

import (
	"testing"

	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

// webBed is a full web-serving testbed: AMD server running NEaT (or the
// Linux baseline, newBaselineWebBed) + N httpd instances, client host
// running M loadgen instances over NEaT.
type webBed struct {
	net     *testbed.Net
	server  *testbed.Host
	client  *testbed.Host
	sys     *core.System     // nil over the baseline
	linux   *baseline.System // nil over NEaT
	clisys  *core.System
	servers []*HTTPD
	gens    []*Loadgen
}

func newWebBed(t *testing.T, replicas, httpds, loadgens int, tcp tcpeng.Config,
	hcfg HTTPDConfig, lcfg LoadgenConfig) *webBed {
	return newSupervisedWebBed(t, replicas, httpds, loadgens, false, tcp, hcfg, lcfg)
}

// newSupervisedWebBed is newWebBed with the server's heartbeat watchdog
// switched on or off.
func newSupervisedWebBed(t *testing.T, replicas, httpds, loadgens int, watchdog bool, tcp tcpeng.Config,
	hcfg HTTPDConfig, lcfg LoadgenConfig) *webBed {
	t.Helper()
	b := bootWebBed(t, testbed.BedConfig{
		Server: testbed.AMD.Host(replicas),
		NEaT: core.Config{
			Kind: stack.Single, TCP: tcp,
			Slots:    testbed.SingleSlots(2, replicas),
			Syscall:  core.ThreadLoc{Core: 1},
			Watchdog: watchdog,
		},
		ClientStacks: loadgens,
	})
	b.populate(t, httpds, loadgens, hcfg, lcfg, func(i int) (*sim.HWThread, *sim.Proc) {
		return b.server.AppThread(2 + replicas + i), b.sys.SyscallProc()
	})
	return b
}

// newBaselineWebBed is newWebBed with the server running the Linux baseline:
// one kernel context on each of cores 0..contexts-1, one httpd colocated with
// context 0, one loadgen.
func newBaselineWebBed(t *testing.T, contexts int, tcp tcpeng.Config,
	hcfg HTTPDConfig, lcfg LoadgenConfig) *webBed {
	t.Helper()
	b := bootWebBed(t, testbed.BedConfig{
		Server:     testbed.AMD.Host(contexts),
		NEaT:       core.Config{TCP: tcp},
		LinuxCores: contexts,
	})
	b.populate(t, 1, 1, hcfg, lcfg, func(int) (*sim.HWThread, *sim.Proc) {
		return b.server.Thread(core.ThreadLoc{Core: 0}), b.linux.KernelProc(0)
	})
	return b
}

// bootWebBed boots the two-machine bed (seed 11) under a webBed.
func bootWebBed(t *testing.T, cfg testbed.BedConfig) *webBed {
	t.Helper()
	tb, err := testbed.NewBed(sim.New(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &webBed{net: tb.Net, server: tb.Server, client: tb.Client,
		sys: tb.NEaT, linux: tb.Linux, clisys: tb.CliSys}
}

// populate starts httpds web servers — server i on the thread place(i)
// names, issuing socket calls through the process it names — waits for
// them to listen, and creates loadgens load generators.
func (b *webBed) populate(t *testing.T, httpds, loadgens int,
	hcfg HTTPDConfig, lcfg LoadgenConfig, place func(i int) (*sim.HWThread, *sim.Proc)) {
	t.Helper()
	if hcfg.Files == nil {
		hcfg.Files = map[string]int{"/f20": 20}
	}
	if hcfg.Port == 0 {
		hcfg.Port = 80
	}
	for i := 0; i < httpds; i++ {
		th, syscall := place(i)
		h := NewHTTPD(th, "lighttpd", syscall, ipc.DefaultCosts(), hcfg)
		h.Start()
		b.servers = append(b.servers, h)
	}
	b.net.Sim.RunFor(sim.Millisecond)
	for i, h := range b.servers {
		if !h.Ready() {
			t.Fatalf("httpd %d not ready", i)
		}
	}

	lcfg.Target = b.server.IP
	if lcfg.Port == 0 {
		lcfg.Port = 80
	}
	if lcfg.URI == "" {
		lcfg.URI = "/f20"
	}
	appBase := 2 + loadgens
	for i := 0; i < loadgens; i++ {
		lg := NewLoadgen(b.client.AppThread(appBase+i), "httperf", b.clisys.SyscallProc(),
			ipc.DefaultCosts(), lcfg)
		b.gens = append(b.gens, lg)
	}
}

func (b *webBed) start() {
	for _, g := range b.gens {
		g.Start()
	}
}
func (b *webBed) run(d sim.Time) { b.net.Sim.RunFor(d) }
func (b *webBed) responses() uint64 {
	var n uint64
	for _, g := range b.gens {
		n += g.Stats().ResponsesOK
	}
	return n
}
func (b *webBed) errors() uint64 {
	var n uint64
	for _, g := range b.gens {
		n += g.Stats().ConnErrors
	}
	return n
}

func TestHTTPKeepAliveEndToEnd(t *testing.T) {
	b := newWebBed(t, 2, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 4, ReqPerConn: 10})
	b.start()
	b.run(200 * sim.Millisecond)
	resp := b.responses()
	if resp < 100 {
		t.Fatalf("responses=%d (errors=%d)", resp, b.errors())
	}
	if b.errors() != 0 {
		t.Fatalf("errors=%d", b.errors())
	}
	if got := b.servers[0].Stats().Requests; got < resp || got > resp+64 {
		// A few requests may be in flight when the window ends.
		t.Fatalf("server saw %d requests, client got %d responses", got, resp)
	}
	// Persistent connections actually persisted: far fewer conns than
	// requests.
	var opened uint64
	for _, g := range b.gens {
		opened += g.Stats().ConnsOpened
	}
	if opened*5 > resp {
		t.Fatalf("keep-alive broken: %d conns for %d responses", opened, resp)
	}
}

func TestHTTPServerKeepAliveLimit(t *testing.T) {
	b := newWebBed(t, 1, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{maxRequestsPerConn: 5},
		LoadgenConfig{Conns: 2, ReqPerConn: 100})
	b.start()
	b.run(100 * sim.Millisecond)
	if b.errors() != 0 {
		t.Fatalf("server-side close caused %d client errors", b.errors())
	}
	var completed uint64
	for _, g := range b.gens {
		completed += g.Stats().ConnsCompleted
	}
	if completed < 5 {
		t.Fatalf("completed conns=%d — server limit never engaged?", completed)
	}
	resp := b.responses()
	if resp < completed*5 {
		t.Fatalf("responses=%d for %d completed conns", resp, completed)
	}
}

func TestHTTPLargeFileWithTSO(t *testing.T) {
	tcp := tcpeng.DefaultConfig()
	tcp.TSO = true
	b := newWebBed(t, 1, 1, 1, tcp,
		HTTPDConfig{Files: map[string]int{"/big": 100 << 10}},
		LoadgenConfig{Conns: 2, ReqPerConn: 5, URI: "/big"})
	b.start()
	for _, g := range b.gens {
		g.BeginMeasure()
	}
	b.run(300 * sim.Millisecond)
	resp := b.responses()
	if resp < 10 {
		t.Fatalf("responses=%d errors=%d", resp, b.errors())
	}
	var bytesIn uint64
	for _, g := range b.gens {
		bytesIn += g.Stats().WindowBytes
	}
	if bytesIn != resp*(100<<10) {
		t.Fatalf("bytes=%d for %d responses (corrupt bodies?)", bytesIn, resp)
	}
	// TSO engaged on the server NIC.
	if b.server.NIC.Stats().TSORequests == 0 {
		t.Fatal("TSO never used")
	}
}

func TestHTTP404Counted(t *testing.T) {
	b := newWebBed(t, 1, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 1, ReqPerConn: 3, URI: "/missing"})
	b.start()
	b.run(50 * sim.Millisecond)
	if b.servers[0].Stats().NotFound == 0 {
		t.Fatal("no 404s recorded")
	}
	// 404 responses still complete the HTTP exchange.
	if b.responses() == 0 {
		t.Fatal("client got no responses")
	}
}

func TestSingleRequestPerConnection(t *testing.T) {
	// Figure 12's workload: every request pays the full handshake.
	b := newWebBed(t, 2, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 8, ReqPerConn: 1})
	b.start()
	b.run(200 * sim.Millisecond)
	resp := b.responses()
	if resp < 50 {
		t.Fatalf("responses=%d errors=%d", resp, b.errors())
	}
	var opened uint64
	for _, g := range b.gens {
		opened += g.Stats().ConnsOpened
	}
	if opened < resp {
		t.Fatalf("1 req/conn but %d conns for %d responses", opened, resp)
	}
	// Under 1-req/conn churn the server holds a steady-state TIME_WAIT
	// population (rate × TimeWait) — the §4 control-plane tunable. Once
	// the load stops, reaping must drain everything.
	if n := b.sys.TotalConns(); n < 100 {
		t.Fatalf("expected a TIME_WAIT population under churn, got %d", n)
	}
	for _, g := range b.gens {
		g.Stop()
	}
	b.run(2 * sim.Second)
	if n := b.sys.TotalConns(); n != 0 {
		t.Fatalf("PCBs leaked after load stopped: %d", n)
	}
}

func TestLoadgenSurvivesServerCrash(t *testing.T) {
	b := newWebBed(t, 2, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 8, ReqPerConn: 1000, Timeout: 100 * sim.Millisecond})
	b.start()
	b.run(50 * sim.Millisecond)
	if b.responses() == 0 {
		t.Fatal("no traffic before crash")
	}
	// Crash one replica mid-run.
	b.sys.Replicas()[0].Procs()[0].Crash(sim.ErrKilled)
	b.run(500 * sim.Millisecond)
	if b.errors() == 0 {
		t.Fatal("crash produced no client-visible errors")
	}
	// Traffic continues after recovery.
	before := b.responses()
	b.run(200 * sim.Millisecond)
	if b.responses() <= before {
		t.Fatalf("no progress after recovery: %d", b.responses())
	}
	if b.sys.Stats().Recoveries == 0 {
		t.Fatal("no recovery recorded")
	}
}

func TestMeasurementWindowing(t *testing.T) {
	b := newWebBed(t, 1, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 4, ReqPerConn: 100})
	b.start()
	b.run(100 * sim.Millisecond) // warmup
	lg := b.gens[0]
	warm := lg.Stats().ResponsesOK
	lg.BeginMeasure()
	b.run(100 * sim.Millisecond)
	st := lg.Stats()
	if st.WindowResponses == 0 {
		t.Fatal("window empty")
	}
	if st.WindowResponses >= st.ResponsesOK || st.ResponsesOK <= warm {
		t.Fatalf("windowing broken: window=%d total=%d warm=%d",
			st.WindowResponses, st.ResponsesOK, warm)
	}
	if lg.Latency().Count() != st.WindowResponses {
		t.Fatalf("latency samples=%d, window=%d", lg.Latency().Count(), st.WindowResponses)
	}
	if lg.Latency().Mean() <= 0 {
		t.Fatal("nonpositive latency")
	}
	if lg.GoodResponses() != st.WindowResponses-st.WindowDiscarded {
		t.Fatal("GoodResponses arithmetic")
	}
}

func TestSyntheticBody(t *testing.T) {
	for _, n := range []int{0, 1, 20, 4096, 10000} {
		b := SyntheticBody(n)
		if len(b) != n {
			t.Fatalf("len=%d want %d", len(b), n)
		}
	}
	if parseContentLength([]byte("HTTP/1.1 200 OK\r\nContent-Length: 123\r\n")) != 123 {
		t.Fatal("content-length parse")
	}
	if parseContentLength([]byte("junk")) != 0 {
		t.Fatal("missing content-length should be 0")
	}
}

// TestResponseHeadFormat pins the bytes of a response head (the md5 oracles
// pin them end to end) and headLen against appendHead across every digit
// count: the head is written into a slab carved to headLen bytes, so a
// miscount would silently truncate it.
func TestResponseHeadFormat(t *testing.T) {
	if got, want := string(appendHead(nil, "200 OK", 65536, false)),
		"HTTP/1.1 200 OK\r\nContent-Length: 65536\r\nConnection: keep-alive\r\n\r\n"; got != want {
		t.Fatalf("head = %q, want %q", got, want)
	}
	if got, want := string(appendHead(nil, "404 X", 9, true)),
		"HTTP/1.1 404 X\r\nContent-Length: 9\r\nConnection: close\r\n\r\n"; got != want {
		t.Fatalf("head = %q, want %q", got, want)
	}
	for _, n := range []int{0, 1, 9, 10, 11, 99, 100, 999, 1000, 65535, 65536, 99999, 100000, 10 << 20, 1<<31 - 1} {
		for _, closeAfter := range []bool{false, true} {
			if got, want := headLen("200 OK", n, closeAfter), len(appendHead(nil, "200 OK", n, closeAfter)); got != want {
				t.Fatalf("headLen(%d, close=%v) = %d, appendHead wrote %d", n, closeAfter, got, want)
			}
		}
	}
}

// TestHTTPDRequestParsing feeds the in-place request parser directly: split
// and pipelined requests, the 400 and 404 paths, and inbuf rewinding to its
// base once drained. The socket is not open, so responses are built and
// released without a stack behind them.
func TestHTTPDRequestParsing(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 1, 1, 1_000_000_000)
	h := &HTTPD{cfg: HTTPDConfig{Files: map[string]int{"/f": 20}, maxRequestsPerConn: 1000,
		CyclesPerRequest: 1}}
	newConn := func() *httpConn { return &httpConn{srv: h, sock: &socketlib.Socket{}} }
	c := newConn()
	p := sim.NewProc(m.Thread(0, 0), "httpd", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		c.onData(ctx, []byte(msg.(string)), false)
	}), sim.ProcConfig{})
	feed := func(in string) {
		p.Deliver(in)
		s.Drain()
	}

	feed("GET /f HT")
	if h.stats.Requests != 0 || string(c.inbuf) != "GET /f HT" {
		t.Fatalf("half a request line: %d requests, inbuf %q", h.stats.Requests, c.inbuf)
	}
	feed("TP/1.1\r\nHost: sut\r\n\r\nGET /f HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\nGET /f")
	if st := h.stats; st.Requests != 3 || st.Responses != 3 || st.NotFound != 1 || st.BadReqs != 0 {
		t.Fatalf("pipelined requests: %+v", st)
	}
	if string(c.inbuf) != "GET /f" {
		t.Fatalf("unparsed tail %q, want it at the base of inbuf", c.inbuf)
	}
	base := &c.inbuf[0]
	feed(" HTTP/1.1\r\n\r\n")
	if h.stats.Requests != 4 || len(c.inbuf) != 0 {
		t.Fatalf("completed tail: %d requests, %d bytes left", h.stats.Requests, len(c.inbuf))
	}
	feed("GET /f HTTP/1.1\r\n\r\n")
	if c.inbuf = c.inbuf[:1]; &c.inbuf[0] != base {
		t.Fatal("a drained inbuf did not rewind to its base")
	}

	for _, bad := range []string{"POST /f HTTP/1.1\r\n\r\n", "GET /f\r\n\r\n", "GET\r\n\r\n", "\r\n\r\n"} {
		c = newConn()
		before := h.stats.BadReqs
		feed(bad)
		if h.stats.BadReqs != before+1 || !c.closing {
			t.Fatalf("%q: BadReqs %d -> %d, closing=%v", bad, before, h.stats.BadReqs, c.closing)
		}
	}
	c = newConn()
	feed("GET  HTTP/1.1\r\n\r\n") // empty path: well-formed, not found
	if h.stats.NotFound != 2 {
		t.Fatalf("empty path: NotFound = %d, want 2", h.stats.NotFound)
	}
}
