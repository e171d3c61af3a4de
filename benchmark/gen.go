package main

import (
	"bytes"
	"strconv"

	"neat/internal/app"
	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// loadGen is the harness's httperf: a closed-loop HTTP client process on
// the socket library. Each of its connections sends one GET, waits for
// the whole reply, and only then sends the next; after reqPerConn replies
// (or an error) the connection is replaced. It differs from app.Loadgen,
// whose request format, modeled costs and httperf-style discarding it
// copies, in what it keeps: every latency sample (exact percentiles, not
// √2-wide histogram buckets) and a byte-for-byte check of every body
// against app.SyntheticBody.
type loadGen struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	cfg  genConfig
	want []byte // the body every reply must carry

	running   bool
	measuring bool
	nextGen   uint64
	arena     bufpool.Arena

	// Window tallies (since beginMeasure). A connection that errors takes
	// its window replies out of all of them, as httperf does, so krps,
	// goodput and latency cover the same replies.
	responses  uint64
	discarded  uint64 // replies on connections that later errored
	errors     uint64 // timeouts, resets, failed connects
	bodyBytes  uint64
	mismatches uint64     // replies whose length or bytes were wrong
	counted    []*genConn // connections with replies in the window
}

type genConfig struct {
	target     proto.Addr
	port       uint16
	conns      int
	reqPerConn int
	bodySize   int
	timeout    sim.Time     // 0: 2 s
	ports      app.PortPlan // nil: ephemeral local ports
}

// The client-side application cost per request, as app.Loadgen charges it.
const genCyclesPerRequest = 2500

type genConn struct {
	sock       *socketlib.Socket
	gen        uint64
	sent       int
	head       []byte // reply header bytes so far
	remaining  int    // body bytes still to come, -1 while in the header
	offset     int    // body bytes consumed of the current reply
	bad        bool   // current reply failed verification
	closeAfter bool
	started    sim.Time
	timer      *sim.Timer
	latsUs     []float64 // window replies on this connection: simulated µs, request sent to reply complete
	bytes      uint64    // their body bytes
	failed     bool
	done       bool
}

type (
	genStart   struct{}
	genTimeout struct {
		c   *genConn
		gen uint64
	}
)

func newLoadGen(th *sim.HWThread, name string, syscallProc *sim.Proc, cfg genConfig) *loadGen {
	if cfg.timeout == 0 {
		cfg.timeout = 2 * sim.Second
	}
	g := &loadGen{cfg: cfg, want: app.SyntheticBody(cfg.bodySize)}
	g.proc = sim.NewProc(th, name, g, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	g.lib = socketlib.New(g.proc, syscallProc, ipc.DefaultCosts())
	return g
}

// start opens the configured connections.
func (g *loadGen) start() { g.proc.Deliver(genStart{}) }

// beginMeasure opens the measurement window.
func (g *loadGen) beginMeasure() {
	g.measuring = true
	g.responses, g.discarded, g.errors, g.bodyBytes = 0, 0, 0, 0
	g.counted = g.counted[:0]
}

// good is replies in the window minus the discarded ones.
func (g *loadGen) good() uint64 { return g.responses - min(g.discarded, g.responses) }

// failed is operations of the window that did not yield a kept reply.
func (g *loadGen) failed() uint64 { return g.errors + min(g.discarded, g.responses) }

// HandleMessage implements sim.Handler.
func (g *loadGen) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if g.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case genStart:
		g.running = true
		for i := 0; i < g.cfg.conns; i++ {
			g.open(ctx)
		}
	case genTimeout:
		if m.c.gen == m.gen && !m.c.done {
			g.fail(ctx, m.c)
		}
	}
}

func (g *loadGen) open(ctx *sim.Context) {
	if !g.running {
		return
	}
	g.nextGen++
	c := &genConn{gen: g.nextGen, remaining: -1}
	var local uint16
	if g.cfg.ports != nil {
		local = g.cfg.ports()
	}
	c.sock = g.lib.ConnectFrom(ctx, g.cfg.target, g.cfg.port, local)
	c.sock.OnConnect = func(ctx *sim.Context, err error) {
		if err != nil {
			g.fail(ctx, c)
			return
		}
		g.request(ctx, c)
	}
	c.sock.OnData = func(ctx *sim.Context, data []byte, eof bool) { g.onData(ctx, c, data, eof) }
	c.sock.OnClosed = func(ctx *sim.Context, reset bool, err error) {
		if !c.done {
			g.fail(ctx, c)
		}
	}
}

func (g *loadGen) request(ctx *sim.Context, c *genConn) {
	ctx.Charge(genCyclesPerRequest)
	c.sent++
	req := "GET /file HTTP/1.1\r\nHost: sut\r\n\r\n"
	if c.sent >= g.cfg.reqPerConn {
		req = "GET /file HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n"
	}
	c.started = ctx.Sim.Now()
	c.remaining, c.offset, c.bad, c.head = -1, 0, false, c.head[:0]
	c.sock.SendRef(ctx, g.arena.AllocString(req))
	c.timer = ctx.TimerAfter(g.cfg.timeout, genTimeout{c: c, gen: c.gen})
}

var (
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length: ")
	connClose     = []byte("Connection: close")
)

func (g *loadGen) onData(ctx *sim.Context, c *genConn, data []byte, eof bool) {
	for len(data) > 0 && !c.done {
		if c.remaining < 0 {
			// Still in the header: it may arrive split across segments.
			c.head = append(c.head, data...)
			end := bytes.Index(c.head, headerEnd)
			if end < 0 {
				break
			}
			data = data[len(data)-(len(c.head)-end-len(headerEnd)):]
			head := c.head[:end]
			c.remaining = -2 // malformed unless a length follows
			if i := bytes.Index(head, contentLength); i >= 0 {
				v := head[i+len(contentLength):]
				if j := bytes.IndexByte(v, '\r'); j >= 0 {
					v = v[:j]
				}
				if n, err := strconv.Atoi(string(v)); err == nil {
					c.remaining = n
				}
			}
			if c.remaining != len(g.want) {
				c.bad = true
				c.remaining = max(c.remaining, 0)
			}
			c.closeAfter = bytes.Contains(head, connClose)
		}
		n := min(len(data), c.remaining)
		if !c.bad && !bytes.Equal(data[:n], g.want[c.offset:c.offset+n]) {
			c.bad = true
		}
		c.offset += n
		c.remaining -= n
		data = data[n:]
		if c.remaining == 0 {
			g.complete(ctx, c)
		}
	}
	if eof && !c.done {
		// The server closed under an outstanding request.
		g.fail(ctx, c)
	}
}

// complete accounts one whole reply and moves the connection on.
func (g *loadGen) complete(ctx *sim.Context, c *genConn) {
	ctx.Charge(genCyclesPerRequest / 2)
	c.timer.Stop()
	if c.bad {
		g.mismatches++
	}
	if g.measuring {
		if len(c.latsUs) == 0 {
			g.counted = append(g.counted, c)
		}
		g.responses++
		g.bodyBytes += uint64(c.offset)
		c.bytes += uint64(c.offset)
		c.latsUs = append(c.latsUs, float64(ctx.Sim.Now()-c.started)/1e3)
	}
	if c.closeAfter || c.sent >= g.cfg.reqPerConn {
		c.done = true
		c.sock.Close(ctx)
		g.open(ctx)
		return
	}
	g.request(ctx, c)
}

// fail aborts and replaces a connection, discarding its window replies
// the way httperf does.
func (g *loadGen) fail(ctx *sim.Context, c *genConn) {
	if c.done {
		return
	}
	c.done, c.failed = true, true
	g.errors++
	g.discarded += uint64(len(c.latsUs))
	g.bodyBytes -= c.bytes
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.sock.State() == socketlib.SockOpen {
		c.sock.Abort(ctx)
	}
	g.open(ctx)
}

// genTally sums the window of several generators.
type genTally struct {
	good, failed, bodyBytes, mismatches uint64
	latsUs                              []float64
}

func tallyGens(gens []*loadGen) genTally {
	var t genTally
	for _, g := range gens {
		t.good += g.good()
		t.failed += g.failed()
		t.bodyBytes += g.bodyBytes
		t.mismatches += g.mismatches
		for _, c := range g.counted {
			if !c.failed {
				t.latsUs = append(t.latsUs, c.latsUs...)
			}
		}
	}
	return t
}
