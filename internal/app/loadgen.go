package app

import (
	"bytes"
	"strconv"

	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// LoadgenConfig configures one httperf-like load generator process.
type LoadgenConfig struct {
	Target proto.Addr
	Port   uint16
	// URI requested repeatedly (must exist in the server's file map).
	URI string
	// Conns is the number of concurrent connections kept open (httperf's
	// session concurrency).
	Conns int
	// ReqPerConn requests are issued per connection before it is closed
	// and replaced (the paper uses 1000 for Table 1, 100 for §6.3/§6.4,
	// and 1 for Figure 12).
	ReqPerConn int
	// ThinkTime inserts a pause between a response and the next request
	// on the connection (0 = closed-loop as fast as possible). Used to
	// drive the partial-load points of the paper's Table 2.
	ThinkTime sim.Time
	// Timeout aborts a request that got no full response (default 2 s);
	// like httperf, the connection's replies are then discarded from the
	// measured rate.
	Timeout sim.Time
	// Ports optionally fixes each new connection's local port (see
	// PortPlan). Fixing the 4-tuple fixes the flow hash, so a plan aims
	// the generator's flows at one chosen replica under hash placement —
	// the adversarial campaign uses this to attribute goodput per
	// replica. Nil keeps ephemeral ports.
	Ports PortPlan
}

// LoadgenStats is the httperf-style report.
type LoadgenStats struct {
	ConnsOpened    uint64
	ConnsCompleted uint64
	ConnErrors     uint64 // timeouts + resets + failed connects
	ResponsesOK    uint64

	// Windowed measurement (between BeginMeasure and snapshot):
	WindowResponses uint64
	WindowDiscarded uint64 // responses on connections that later errored
	WindowBytes     uint64
}

// Loadgen is one load generator process.
type Loadgen struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	cfg  LoadgenConfig

	stats     LoadgenStats
	latency   metrics.Histogram
	measuring bool
	running   bool

	// reqKeepAlive and reqClose are the two requests the generator sends,
	// built once: the second asks the server to close after replying.
	reqKeepAlive, reqClose string

	// arena carves request payloads out of pooled slab blocks (see HTTPD).
	arena bufpool.Arena
}

type lgConn struct {
	sock       *socketlib.Socket
	sent       int
	inbuf      []byte
	expect     int  // bytes remaining of current response body, -1 = header
	bodySeen   int  // body bytes already consumed of the current response
	closeAfter bool // server announced Connection: close on this response
	reqStart   sim.Time
	timeout    lgTimeout
	think      lgThinkDone
	// windowResponses counts replies during the measuring window for
	// httperf-style discarding on error.
	windowResponses uint64
	done            bool
}

// lgTimeout and lgThinkDone are a connection's request timeout and think
// timer, embedded in lgConn. Each node is its own fire message, as a
// tcpeng.ConnTimer is: the generation inside its sim.Timer drops a fire that
// was stopped or re-armed, and arming it through Retimer allocates nothing.
type lgTimeout struct {
	sim.Timer
	c *lgConn
}

type lgThinkDone struct {
	sim.Timer
	c *lgConn
}

type lgStart struct{}
type lgStop struct{}

// lgCyclesPerRequest is the client-side application cost of one request.
const lgCyclesPerRequest = 2500

// NewLoadgen creates a load generator on thread th.
func NewLoadgen(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg LoadgenConfig) *Loadgen {
	if cfg.Conns == 0 {
		cfg.Conns = 8
	}
	if cfg.ReqPerConn == 0 {
		cfg.ReqPerConn = 100
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * sim.Second
	}
	lg := &Loadgen{cfg: cfg}
	lg.reqKeepAlive = "GET " + cfg.URI + " HTTP/1.1\r\nHost: sut\r\n\r\n"
	lg.reqClose = "GET " + cfg.URI + " HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n"
	lg.proc = sim.NewProc(th, name, lg, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	lg.lib = socketlib.New(lg.proc, syscallProc, ipcCosts)
	return lg
}

// Start opens the configured number of connections and begins issuing
// requests.
func (lg *Loadgen) Start() { lg.proc.Deliver(lgStart{}) }

// Stop ceases opening replacement connections (existing ones finish).
func (lg *Loadgen) Stop() { lg.proc.Deliver(lgStop{}) }

// BeginMeasure starts the measurement window (call after warmup).
func (lg *Loadgen) BeginMeasure() {
	lg.measuring = true
	lg.stats.WindowResponses = 0
	lg.stats.WindowDiscarded = 0
	lg.stats.WindowBytes = 0
	lg.latency.Reset()
}

// Stats returns a snapshot of the counters.
func (lg *Loadgen) Stats() LoadgenStats { return lg.stats }

// Latency returns the response-latency histogram of the current window.
func (lg *Loadgen) Latency() *metrics.Histogram { return &lg.latency }

// GoodResponses returns windowed responses minus httperf-style discards.
func (lg *Loadgen) GoodResponses() uint64 {
	if lg.stats.WindowDiscarded > lg.stats.WindowResponses {
		return 0
	}
	return lg.stats.WindowResponses - lg.stats.WindowDiscarded
}

// HandleMessage implements sim.Handler.
func (lg *Loadgen) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if lg.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case lgStart:
		lg.running = true
		for i := 0; i < lg.cfg.Conns; i++ {
			lg.openConn(ctx)
		}
	case lgStop:
		lg.running = false
	case *lgTimeout:
		if !m.c.done {
			lg.connError(ctx, m.c, true)
		}
	case *lgThinkDone:
		if !m.c.done {
			lg.sendRequest(ctx, m.c)
		}
	}
}

// openConn starts one new connection.
func (lg *Loadgen) openConn(ctx *sim.Context) {
	if !lg.running {
		return
	}
	lg.stats.ConnsOpened++
	c := &lgConn{expect: -1}
	c.timeout.c, c.think.c = c, c
	var lp uint16
	if lg.cfg.Ports != nil {
		lp = lg.cfg.Ports()
	}
	s := lg.lib.ConnectFrom(ctx, lg.cfg.Target, lg.cfg.Port, lp)
	c.sock = s
	s.Ctx = c
	s.OnConnect = func(ctx *sim.Context, err error) {
		if err != nil {
			lg.connError(ctx, c, false)
			return
		}
		lg.sendRequest(ctx, c)
	}
	s.OnData = func(ctx *sim.Context, data []byte, eof bool) { lg.onData(ctx, c, data, eof) }
	s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
		if !c.done {
			lg.connError(ctx, c, false)
		}
	}
}

// sendRequest issues the next GET on the connection.
func (lg *Loadgen) sendRequest(ctx *sim.Context, c *lgConn) {
	ctx.Charge(lgCyclesPerRequest)
	c.sent++
	req := lg.reqKeepAlive
	if c.sent >= lg.cfg.ReqPerConn {
		req = lg.reqClose
	}
	c.reqStart = ctx.Sim.Now()
	c.expect = -1
	c.sock.SendRef(ctx, lg.arena.AllocString(req))
	ctx.Retimer(&c.timeout.Timer, lg.cfg.Timeout, &c.timeout)
}

// onData consumes response bytes, completing requests as bodies fill. Bytes
// are read off the slice the library lends; only an incomplete response head
// is kept until the next call, at the base of inbuf.
func (lg *Loadgen) onData(ctx *sim.Context, c *lgConn, data []byte, eof bool) {
	buf := data
	if len(c.inbuf) > 0 {
		c.inbuf = append(c.inbuf, data...)
		buf = c.inbuf
	}
	c.inbuf = append(c.inbuf[:0], lg.consume(ctx, c, buf)...)
	if eof && !c.done {
		// Server closed early (e.g. its keep-alive limit) — only an error
		// if a request was outstanding.
		if c.expect != -1 || c.sent < lg.cfg.ReqPerConn {
			lg.connError(ctx, c, false)
		} else {
			c.sock.Close(ctx)
		}
	}
}

// consume completes the responses buf holds and returns what it could not
// use yet: the start of a response head, or nothing.
func (lg *Loadgen) consume(ctx *sim.Context, c *lgConn, buf []byte) []byte {
	for {
		if c.expect == -1 {
			// Parse response head.
			end := bytes.Index(buf, []byte("\r\n\r\n"))
			if end < 0 {
				return buf
			}
			head := buf[:end]
			buf = buf[end+4:]
			c.expect = parseContentLength(head)
			c.closeAfter = bytes.Contains(head, []byte("Connection: close"))
		}
		if c.expect > len(buf) {
			// Body bytes are counted, never kept: huge responses do not
			// accumulate anywhere.
			c.bodySeen += len(buf)
			c.expect -= len(buf)
			return nil
		}
		// Rest of the response body is here.
		c.bodySeen += c.expect
		buf = buf[c.expect:]
		body := c.bodySeen
		c.bodySeen = 0
		c.expect = -1
		lg.completeResponse(ctx, c, body)
		if c.done {
			return nil
		}
		if c.closeAfter {
			// The server ends the connection here (its keep-alive limit or
			// our Connection: close); close our half so the PCB and the
			// ephemeral port are released, then open a replacement.
			c.done = true
			lg.stats.ConnsCompleted++
			c.sock.Close(ctx)
			lg.openConn(ctx)
			return nil
		}
		if c.sent >= lg.cfg.ReqPerConn {
			// Connection complete.
			c.done = true
			lg.stats.ConnsCompleted++
			c.sock.Close(ctx)
			lg.openConn(ctx)
			return nil
		}
		if lg.cfg.ThinkTime > 0 {
			ctx.Retimer(&c.think.Timer, lg.cfg.ThinkTime, &c.think)
			return buf
		}
		lg.sendRequest(ctx, c)
		// Responses cannot be pipelined beyond what we requested.
		if len(buf) == 0 {
			return nil
		}
	}
}

// completeResponse accounts one successful reply.
func (lg *Loadgen) completeResponse(ctx *sim.Context, c *lgConn, bodyBytes int) {
	ctx.Charge(lgCyclesPerRequest / 2)
	c.timeout.Stop()
	lg.stats.ResponsesOK++
	if lg.measuring {
		lg.stats.WindowResponses++
		lg.stats.WindowBytes += uint64(bodyBytes)
		c.windowResponses++
		lg.latency.Observe(ctx.Sim.Now() - c.reqStart)
	}
}

// connError aborts and replaces a failed connection, discarding its
// windowed replies like httperf does.
func (lg *Loadgen) connError(ctx *sim.Context, c *lgConn, timeout bool) {
	if c.done {
		return
	}
	c.done = true
	lg.stats.ConnErrors++
	if lg.measuring {
		lg.stats.WindowDiscarded += c.windowResponses
	}
	c.timeout.Stop()
	if c.sock.State() == socketlib.SockOpen {
		c.sock.Abort(ctx)
	}
	lg.openConn(ctx)
}

// parseContentLength extracts the Content-Length header value (or 0).
// Field names are case-insensitive and the value tolerates optional
// whitespace after the colon (RFC 9110 §5.1, §5.6.3), so responses from
// stacks that emit "content-length:5" parse the same as the canonical
// form.
func parseContentLength(head []byte) int {
	for len(head) > 0 {
		line := head
		if i := bytes.Index(head, []byte("\r\n")); i >= 0 {
			line, head = head[:i], head[i+2:]
		} else {
			head = nil
		}
		i := bytes.IndexByte(line, ':')
		if i < 0 || !bytes.EqualFold(line[:i], []byte("Content-Length")) {
			continue
		}
		v := bytes.TrimRight(bytes.TrimLeft(line[i+1:], " \t"), " \t")
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return 0
		}
		return n
	}
	return 0
}
