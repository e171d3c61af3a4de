package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/trace"
	"neat/internal/wire"
)

// connParams shapes conn_scale: two bare TCP engines over one link, a
// population of connections opened in closed batches, then closed.
type connParams struct {
	name  string
	conns int // connection lifecycles in the window
	warm  int // lifecycles run to completion before the window (set-up)
	batch int // most connects (or closes) outstanding at a time; sizes are seed-drawn in [7/8 batch, batch]
	echo  int // every echo-th connection does one verified echo
}

const (
	csPort      = uint16(80)
	csEchoBytes = 64
	// Connections per client engine, inside the 1024..65535 ephemeral range.
	csPerEngine = 60000
)

// Messages of the harness-owned hosts.
type (
	csFrame []byte
	csOpen  struct{ n int }
	csClose struct{ n int }
)

// csConn is the client's per-connection context.
type csConn struct {
	idx     int
	started sim.Time
	got     int // echo bytes received so far
}

// csHost hosts TCP engines on one machine. Like the template in
// internal/experiments/connscale.go it is the tcpeng.Env of its engines,
// the wire.Port of its link end and the sim.Handler of its process; no
// NIC, driver, IP layer, ipc ring or socket library is involved.
type csHost struct {
	ds      *sim.Simulator
	proc    *sim.Proc
	ctx     *sim.Context
	ep      wire.Endpoint
	engines map[proto.Addr]*tcpeng.Engine
	isn     uint64
	run     *csRun // nil on the server
}

// csRun is the client-side closed loop and its tallies.
type csRun struct {
	p       connParams
	srvIP   proto.Addr
	cliIPs  []proto.Addr
	nextEng int

	rng     *rand.Rand // the seed's stream: batch sizes and the echo payload
	pattern []byte     // echo payload

	target      int // lifecycles of the current phase
	opened      int
	outstanding int
	live        []*tcpeng.Conn
	closing     int
	closed      int
	openDone    bool
	closeDone   bool
	closedAt    sim.Time // when the last close handshake completed

	lats       []float64 // connect latency, simulated µs
	echoes     int
	mismatches int
	echoBytes  uint64
	failures   int // connects refused or reset
}

func newCSHost(m *sim.Machine, name string, ep wire.Endpoint) *csHost {
	h := &csHost{ds: m.Sim(), ep: ep, engines: map[proto.Addr]*tcpeng.Engine{}}
	h.proc = sim.NewProc(m.Thread(0, 0), name, h, sim.ProcConfig{Component: "tcp"})
	ep.Attach(h)
	ep.Bind(m.Sim())
	return h
}

// Receive implements wire.Port.
func (h *csHost) Receive(frame []byte) { h.proc.Deliver(csFrame(frame)) }

// HandleMessage implements sim.Handler.
func (h *csHost) HandleMessage(ctx *sim.Context, msg sim.Message) {
	h.ctx = ctx
	switch m := msg.(type) {
	case csFrame:
		ctx.Charge(300)
		if f, err := proto.DecodeFrame(m); err == nil {
			if e := h.engines[f.IP.Dst]; e != nil {
				e.Input(f)
			}
			f.Release()
		}
	case *tcpeng.ConnTimer:
		ctx.Charge(100)
		la, _ := m.C.LocalAddr()
		if e := h.engines[la]; e != nil {
			e.OnTimer(m.C, m.Kind)
		}
	case csOpen:
		ctx.Charge(int64(m.n) * 50)
		h.run.openBatch(h, m.n)
	case csClose:
		ctx.Charge(int64(m.n) * 50)
		h.run.closeBatch(m.n)
	}
	h.ctx = nil
}

// tcpeng.Env.

func (h *csHost) Now() sim.Time { return h.ds.Now() }

func (h *csHost) SendSegment(c *tcpeng.Conn, seg tcpeng.OutSegment) {
	h.ctx.Charge(200)
	h.ep.Transmit(proto.BuildTCP(
		proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: seg.Src, Dst: seg.Dst},
		seg.Hdr, seg.Payload))
}

func (h *csHost) ArmTimer(c *tcpeng.Conn, k tcpeng.TimerKind, d sim.Time) {
	t := &c.Timers[k]
	h.ctx.Retimer(&t.Timer, d, t)
}

func (h *csHost) StopTimer(c *tcpeng.Conn, k tcpeng.TimerKind) { c.Timers[k].Stop() }

func (h *csHost) Accepted(c *tcpeng.Conn) {
	if c.Listener != nil {
		c.Listener.Accept() // no application: keep the accept queue flat
	}
}

func (h *csHost) Connected(c *tcpeng.Conn) {
	if h.run != nil {
		h.run.connected(h, c)
	}
}

func (h *csHost) DataReadable(c *tcpeng.Conn) {
	if h.run != nil {
		h.run.readable(h, c)
		return
	}
	// Server: echo what arrived, and close once the client has.
	if data := c.Recv(0); len(data) > 0 {
		c.Send(data)
	}
	if c.EOF() {
		c.Close()
	}
}

func (h *csHost) SendSpace(c *tcpeng.Conn) {}

func (h *csHost) ConnClosed(c *tcpeng.Conn, rst bool) {
	if h.run != nil {
		h.run.connClosed(h, c, rst)
	}
}

func (h *csHost) ConnRemoved(c *tcpeng.Conn) {}

func (h *csHost) RandUint32() uint32 {
	h.isn += 0x9e3779b97f4a7c15
	z := h.isn
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z)
}

// The client's closed loop. A batch of connects is outstanding until every
// connection of it is established and, for the echoing ones, has its bytes
// back; only then does the client send itself the next batch.

func (r *csRun) openBatch(h *csHost, n int) {
	for i := 0; i < n; i++ {
		e := h.engines[r.cliIPs[r.nextEng%len(r.cliIPs)]]
		c, err := e.Connect(r.srvIP, csPort)
		if err != nil {
			r.failures++
			continue
		}
		c.Ctx = &csConn{idx: r.opened, started: h.Now()}
		r.opened++
		r.outstanding++
	}
	r.nextEng++
	r.batchDone(h)
}

func (r *csRun) connected(h *csHost, c *tcpeng.Conn) {
	cc := c.Ctx.(*csConn)
	r.lats = append(r.lats, float64(h.Now()-cc.started)/1e3)
	r.live = append(r.live, c)
	if cc.idx%r.p.echo == 0 {
		c.Send(r.pattern)
		return
	}
	r.outstanding--
	r.batchDone(h)
}

func (r *csRun) readable(h *csHost, c *tcpeng.Conn) {
	cc := c.Ctx.(*csConn)
	data := c.Recv(0)
	for i, b := range data {
		if cc.got+i >= len(r.pattern) || b != r.pattern[cc.got+i] {
			r.mismatches++
			break
		}
	}
	before := cc.got
	cc.got += len(data)
	if before < len(r.pattern) && cc.got >= len(r.pattern) {
		r.echoes++
		r.echoBytes += uint64(len(r.pattern))
		r.outstanding--
		r.batchDone(h)
	}
}

func (r *csRun) connClosed(h *csHost, c *tcpeng.Conn, rst bool) {
	if rst {
		r.failures++
	}
	if r.closing > 0 {
		r.closing--
		r.closed++
		if r.closing == 0 {
			r.nextClose(h)
		}
	}
}

// nextBatch draws the size of the next batch of connects or closes from
// the seed, within an eighth below the configured batch, so the seed
// decides how the bursts fall on the wire and in the server's inbox
// without changing the load by much.
func (r *csRun) nextBatch() int {
	return r.p.batch - r.rng.Intn(r.p.batch/8+1)
}

// batchDone issues the next open batch once nothing is outstanding.
func (r *csRun) batchDone(h *csHost) {
	if r.outstanding > 0 || r.openDone {
		return
	}
	if left := r.target - r.opened; left > 0 {
		h.ctx.Send(h.proc, csOpen{n: min(left, r.nextBatch())})
		return
	}
	r.openDone = true
}

func (r *csRun) closeBatch(n int) {
	r.closing = n
	batch := r.live[len(r.live)-n:]
	r.live = r.live[:len(r.live)-n]
	for _, c := range batch {
		c.Close()
	}
}

func (r *csRun) nextClose(h *csHost) {
	if len(r.live) == 0 {
		r.closeDone, r.closedAt = true, h.Now()
		return
	}
	h.ctx.Send(h.proc, csClose{n: min(len(r.live), r.nextBatch())})
}

// csBed is one instantiated conn_scale bed.
type csBed struct {
	s        *sim.Simulator
	link     *wire.Link
	srv, cli *csHost
	se       *tcpeng.Engine
	run      *csRun
}

func newCSBed(p connParams, seed int64, tr *trace.Tracer) (*csBed, error) {
	s := sim.New(seed)
	if tr != nil {
		tr.Attach(s)
	}
	link := wire.NewLink(s)
	srvM := sim.NewMachine(s, "server", 1, 1, 3_000_000_000)
	cliM := sim.NewMachine(s, "client", 1, 1, 3_000_000_000)
	b := &csBed{s: s, link: link,
		srv: newCSHost(srvM, "srv", link.End(0)),
		cli: newCSHost(cliM, "cli", link.End(1)),
	}
	rng := rand.New(rand.NewSource(seed))
	b.srv.isn, b.cli.isn = rng.Uint64(), rng.Uint64()

	srvIP := proto.IPv4(10, 0, 0, 1)
	scfg := tcpeng.DefaultConfig()
	// One armed timer per established connection: the idle guard, far
	// beyond the horizon, stopped when the connection closes.
	scfg.Guard.IdleDeadline = 30 * sim.Second
	b.se = tcpeng.NewEngine(b.srv, srvIP, scfg)
	b.srv.engines[srvIP] = b.se
	if _, err := b.se.Listen(proto.Addr{}, csPort, p.conns+p.warm+16); err != nil {
		return nil, err
	}

	ccfg := tcpeng.DefaultConfig()
	ccfg.EphemeralLo, ccfg.EphemeralHi = 1024, 65535
	b.run = &csRun{p: p, srvIP: srvIP, rng: rng, pattern: make([]byte, csEchoBytes)}
	rng.Read(b.run.pattern)
	for i := 0; i < (p.conns+csPerEngine-1)/csPerEngine; i++ {
		ip := proto.IPv4(10, 0, byte(1+i/250), byte(1+i%250))
		b.run.cliIPs = append(b.run.cliIPs, ip)
		b.cli.engines[ip] = tcpeng.NewEngine(b.cli, ip, ccfg)
	}
	b.cli.run = b.run
	return b, nil
}

// liveConns is the PCB population across both hosts.
func (b *csBed) liveConns() int {
	n := b.se.NumConns()
	for _, e := range b.cli.engines {
		n += e.NumConns()
	}
	return n
}

// advance runs the simulation in small steps until cond holds.
func (b *csBed) advance(cond func() bool) error {
	deadline := b.s.Now() + 30*sim.Second
	for !cond() {
		if b.s.Now() > deadline {
			return fmt.Errorf("conn_scale: closed loop stalled at %v (%d opened, %d closed, %d outstanding)",
				b.s.Now(), b.run.opened, b.run.closed, b.run.outstanding)
		}
		b.s.RunFor(200 * sim.Microsecond)
	}
	return nil
}

// lifecycles opens n connections in closed batches, calls atPeak with all
// of them established, and closes them. The closed connections still sit
// in TIME_WAIT; drain waits for those.
func (b *csBed) lifecycles(n int, atPeak func()) error {
	r := b.run
	r.target, r.opened, r.closed = n, 0, 0
	r.openDone, r.closeDone = false, false
	b.s.DeliverAt(b.s.Now(), b.cli.proc, csOpen{n: min(n, r.nextBatch())})
	if err := b.advance(func() bool { return r.openDone }); err != nil {
		return err
	}
	if atPeak != nil {
		atPeak()
	}
	b.s.DeliverAt(b.s.Now(), b.cli.proc, csClose{n: min(len(r.live), r.nextBatch())})
	return b.advance(func() bool { return r.closeDone })
}

// drain runs until TIME_WAIT expiry has returned every PCB to its pool.
func (b *csBed) drain() error {
	return b.advance(func() bool { return b.liveConns() == 0 })
}

func (p connParams) run(seed int64, o repOpts) (*sample, error) {
	sm := &sample{}
	rep := o.spans.begin(p.name, "rep", o.parent)
	defer o.spans.end(rep)

	t0 := time.Now()
	sp := o.spans.begin(p.name, "build", rep)
	var tr *trace.Tracer
	if o.observe {
		tr = trace.New()
	}
	b, err := newCSBed(p, seed, tr)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	// The warm-up is a small population opened and closed, which grows the
	// pools, tables and wheel slots the window then reuses. It is not
	// drained: with nothing but far-off stale timers left the wheel's
	// position leaps ahead of the clock, and it then parks every nearer arm
	// in one slot it rescans per pop (quadratic; see README.md, "Findings").
	sp = o.spans.begin(p.name, "warm", rep)
	err = b.lifecycles(p.warm, nil)
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	r := b.run
	r.lats, r.echoes, r.echoBytes = r.lats[:0], 0, 0
	tcp0 := b.se.Stats()
	pool0 := b.se.PoolStats().Reused
	sim0, link0 := snapSim(b.s), b.link.Stats()
	runtime.GC()
	sm.setupS = time.Since(t0).Seconds()

	sp = o.spans.begin(p.name, "window", rep)
	meter := newHostMeter()
	o.profile.start()
	meter.start()
	var established, peakTimers int
	err = b.lifecycles(p.conns, func() {
		// The population is at its peak: stop the clock and the profiler
		// (liveHeap's forced collections are the harness's, not the
		// workload's), take the live heap and the timer residency, restart.
		meter.stop()
		o.profile.stop()
		sm.live = liveHeap()
		established = b.se.NumEstablished()
		peakTimers = b.s.TimerStats().Pending
		o.profile.start()
		meter.start()
	})
	if err == nil {
		err = b.drain()
	}
	meter.stop()
	o.profile.stop()
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sm.host, sm.calibNs = meter.done()

	t1 := time.Now()
	// Simulated time runs to the last close handshake; the TIME_WAIT drain
	// after it is a fixed 250 ms that says nothing about the stack.
	sm.simWindow = r.closedAt - sim0.now
	c := &sm.counts
	c.addSim(sim0, snapSim(b.s))
	c.timersPending = peakTimers
	c.addLink(b.link, link0, sim0.now)
	tcp1 := b.se.Stats()
	c.tcp.SegsIn = tcp1.SegsIn - tcp0.SegsIn
	c.tcp.SegsOut = tcp1.SegsOut - tcp0.SegsOut
	c.tcp.Retransmits = tcp1.Retransmits - tcp0.Retransmits
	c.tcp.FastRetransmits = tcp1.FastRetransmits - tcp0.FastRetransmits
	c.connsCreated = tcp1.AcceptedConns - tcp0.AcceptedConns
	c.poolReused = b.se.PoolStats().Reused - pool0

	sm.ops = uint64(r.closed)
	sm.failed = uint64(r.failures + r.mismatches)
	if established != p.conns {
		sm.violations = append(sm.violations,
			fmt.Sprintf("%d of %d connections established at the peak", established, p.conns))
		sm.failed += uint64(p.conns - min(established, p.conns))
	}
	if want := (p.conns + p.echo - 1) / p.echo; r.echoes != want || r.mismatches != 0 {
		sm.violations = append(sm.violations,
			fmt.Sprintf("%d of %d echoes complete, %d with wrong bytes", r.echoes, want, r.mismatches))
	}
	if free := b.se.PoolStats().FreeConns; free < p.conns {
		sm.violations = append(sm.violations,
			fmt.Sprintf("server PCB pool holds %d recycled blocks after %d lifecycles", free, p.conns))
	}
	sm.attempted = uint64(p.conns)
	sm.unexpected = sm.failed
	sm.bodyBytes = r.echoBytes
	sm.setLatencies(r.lats)
	parts := []string{fmt.Sprintf("now=%d %+v", b.s.Now(), tcp1)}
	for _, ip := range r.cliIPs {
		parts = append(parts, fmt.Sprintf("%+v", b.cli.engines[ip].Stats()))
	}
	sm.digest = digestOf(parts...)
	if tr != nil {
		sm.hops, c.traceSpans = foldHops(tr, func(string) bool { return true })
	}
	sm.setupS += time.Since(t1).Seconds()
	return sm, nil
}
