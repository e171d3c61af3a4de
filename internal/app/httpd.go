// Package app provides the workload applications of the paper's
// evaluation: a lighttpd-like static web server (httpd) and an
// httperf-like load generator (loadgen). Both are event-driven processes
// built on the socketlib fast-path sockets, and both charge application
// cycles so the CPU-load split between stack and application matches the
// paper's analysis (§3.2: roughly 70-80 % of a loaded web server's cycles
// are spent inside the OS).
package app

import (
	"bytes"
	"strconv"

	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// HTTPDConfig configures a web server instance (one lighttpd process).
type HTTPDConfig struct {
	Port    uint16
	Backlog int
	// Files maps URI path → content size in bytes (content is synthetic,
	// cached in memory as in the paper's evaluation).
	Files map[string]int
	// CyclesPerRequest is the application work per request (parse +
	// dispatch + logging). Calibrated in experiments/calibrate.go.
	CyclesPerRequest int64

	// maxRequestsPerConn closes the connection after N requests (default
	// 1000, the paper's lighttpd setting); the keep-alive test lowers it.
	maxRequestsPerConn int
}

const (
	// httpdCyclesPerKB is the application copy cost per KiB of response
	// body.
	httpdCyclesPerKB = 600
	// httpdChunkSize bounds how much of a large response is handed to the
	// socket per send-space window.
	httpdChunkSize = 64 << 10
)

// HTTPDStats counts server activity.
type HTTPDStats struct {
	Requests  uint64
	Responses uint64
	BadReqs   uint64
	NotFound  uint64
}

// HTTPD is one web server process.
type HTTPD struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	cfg  HTTPDConfig

	ready bool
	stats HTTPDStats

	// arena carves response payloads out of pooled slab blocks; each send
	// hands a bufpool.Ref to the stack instead of allocating a []byte.
	arena bufpool.Arena
}

type httpConn struct {
	srv    *HTTPD
	sock   *socketlib.Socket
	inbuf  []byte
	served int
	// sendRemaining counts body bytes of a large response still to be
	// generated and sent; bodies are synthetic, so they are produced
	// lazily chunk by chunk instead of being buffered.
	sendRemaining int
	closing       bool
}

// NewHTTPD creates a web server process on thread th, issuing socket calls
// through syscallProc. Call Start to listen.
func NewHTTPD(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg HTTPDConfig) *HTTPD {
	if cfg.Backlog == 0 {
		cfg.Backlog = 1024
	}
	if cfg.maxRequestsPerConn == 0 {
		cfg.maxRequestsPerConn = 1000
	}
	if cfg.CyclesPerRequest == 0 {
		cfg.CyclesPerRequest = 30000
	}
	h := &HTTPD{cfg: cfg}
	h.proc = sim.NewProc(th, name, h, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	h.lib = socketlib.New(h.proc, syscallProc, ipcCosts)
	return h
}

// Ready reports whether the listen completed.
func (h *HTTPD) Ready() bool { return h.ready }

// Stats returns a snapshot of the server counters.
func (h *HTTPD) Stats() HTTPDStats { return h.stats }

// Start begins listening (deliver any message to kick the process).
func (h *HTTPD) Start() { h.proc.Deliver(startMsg{}) }

type startMsg struct{}

// HandleMessage implements sim.Handler.
func (h *HTTPD) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if h.lib.HandleEvent(ctx, msg) {
		return
	}
	if _, ok := msg.(startMsg); ok {
		ln := h.lib.Listen(ctx, h.cfg.Port, h.cfg.Backlog)
		ln.OnReady = func(ctx *sim.Context, err error) { h.ready = err == nil }
		ln.OnAccept = h.accept
	}
}

func (h *HTTPD) accept(ctx *sim.Context, s *socketlib.Socket) {
	c := &httpConn{srv: h, sock: s}
	s.Ctx = c
	s.OnData = c.onData
	s.OnSendSpace = c.onSendSpace
}

// onData parses pipelined HTTP/1.1 requests. Requests that arrive whole are
// read off the slice the library lends; only what is left unparsed — the
// start of a request head — is kept until the next call, at the base of
// inbuf.
func (c *httpConn) onData(ctx *sim.Context, data []byte, eof bool) {
	rest := data
	if len(c.inbuf) > 0 {
		c.inbuf = append(c.inbuf, data...)
		rest = c.inbuf
	}
	for !c.closing {
		end := bytes.Index(rest, []byte("\r\n\r\n"))
		if end < 0 {
			break
		}
		req := rest[:end]
		rest = rest[end+4:]
		c.handleRequest(ctx, req)
	}
	c.inbuf = append(c.inbuf[:0], rest...)
	if eof && !c.closing {
		c.closing = true
		c.sock.Close(ctx)
	}
}

// handleRequest serves one parsed request head. The request line is read in
// place: "GET <path> <version>".
func (c *httpConn) handleRequest(ctx *sim.Context, req []byte) {
	h := c.srv
	h.stats.Requests++
	ctx.Charge(h.cfg.CyclesPerRequest)

	line := req
	if i := bytes.IndexByte(line, '\r'); i >= 0 {
		line = line[:i]
	}
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		sp2 = bytes.IndexByte(line[sp1+1:], ' ')
	}
	if sp2 < 0 || string(line[:sp1]) != "GET" {
		h.stats.BadReqs++
		c.respond(ctx, "400 X", "bad request", true)
		return
	}
	path := line[sp1+1 : sp1+1+sp2]
	wantClose := bytes.Contains(req, []byte("Connection: close"))

	size, ok := h.cfg.Files[string(path)]
	if !ok {
		h.stats.NotFound++
		c.respond(ctx, "404 X", "not found", wantClose)
		return
	}
	c.served++
	if c.served >= h.cfg.maxRequestsPerConn {
		wantClose = true
	}
	c.respondFile(ctx, size, wantClose)
}

// appendHead appends the head of a response with the given status text and
// body length to b. Responses are written straight into their slab, which
// has to be carved first: headLen is the number of bytes appendHead appends.
func appendHead(b []byte, status string, length int, closeAfter bool) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = append(b, status...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(length), 10)
	b = append(b, "\r\n"...)
	b = append(b, connHeader(closeAfter)...)
	return append(b, "\r\n"...)
}

func headLen(status string, length int, closeAfter bool) int {
	digits := 1
	for n := length; n >= 10; n /= 10 {
		digits++
	}
	return len("HTTP/1.1 ") + len(status) + len("\r\nContent-Length: ") + digits +
		len("\r\n") + len(connHeader(closeAfter)) + len("\r\n")
}

// respond sends a small literal response.
func (c *httpConn) respond(ctx *sim.Context, status, body string, closeAfter bool) {
	h := c.srv
	n := headLen(status, len(body), closeAfter)
	ref := h.arena.Alloc(n + len(body))
	appendHead(ref.B[:0], status, len(body), closeAfter)
	copy(ref.B[n:], body)
	h.stats.Responses++
	c.sock.SendRef(ctx, ref)
	if closeAfter {
		c.closing = true
		c.sock.Close(ctx)
	}
}

// respondFile streams a synthetic file of the given size, chunking large
// bodies lazily on send-space notifications.
func (c *httpConn) respondFile(ctx *sim.Context, size int, closeAfter bool) {
	h := c.srv
	n := headLen("200 OK", size, closeAfter)
	ctx.Charge(httpdCyclesPerKB * int64(size/1024+1))
	h.stats.Responses++

	if closeAfter {
		c.closing = true
	}
	if n+size <= httpdChunkSize {
		ref := h.arena.Alloc(n + size)
		appendHead(ref.B[:0], "200 OK", size, closeAfter)
		fillSynthetic(ref.B[n:])
		c.sock.SendRef(ctx, ref)
		if closeAfter {
			c.sock.Close(ctx)
		}
		return
	}
	ref := h.arena.Alloc(n)
	appendHead(ref.B[:0], "200 OK", size, closeAfter)
	c.sock.SendRef(ctx, ref)
	c.sendRemaining = size
	c.pump(ctx)
}

// pump generates and pushes body chunks within the socket's credit.
func (c *httpConn) pump(ctx *sim.Context) {
	for c.sendRemaining > 0 {
		n := httpdChunkSize
		if n > c.sendRemaining {
			n = c.sendRemaining
		}
		ref := c.srv.arena.Alloc(n)
		fillSynthetic(ref.B)
		c.sock.SendRef(ctx, ref)
		c.sendRemaining -= n
		if c.sock.Credit() < socketlib.SendLowWater {
			// The Send above requested a space notification; resume in
			// OnSendSpace.
			return
		}
	}
	if c.closing && c.sendRemaining == 0 {
		c.sock.Close(ctx)
	}
}

func (c *httpConn) onSendSpace(ctx *sim.Context, avail int) {
	if c.sendRemaining > 0 {
		c.pump(ctx)
	}
}

func connHeader(closeAfter bool) string {
	if closeAfter {
		return "Connection: close\r\n"
	}
	return "Connection: keep-alive\r\n"
}

// syntheticChunk is shared source material for generated file bodies.
var syntheticChunk = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}()

// fillSynthetic fills b with the deterministic body pattern in place —
// the allocation-free form of SyntheticBody for slab-carved payloads.
func fillSynthetic(b []byte) {
	for off := 0; off < len(b); off += len(syntheticChunk) {
		copy(b[off:], syntheticChunk)
	}
}

// SyntheticBody returns a deterministic body of exactly size bytes.
func SyntheticBody(size int) []byte {
	out := make([]byte, size)
	fillSynthetic(out)
	return out
}
