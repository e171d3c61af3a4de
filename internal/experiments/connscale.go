package experiments

import (
	"crypto/md5"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"neat/internal/proto"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/wire"
)

// The connection-scale sweep measures what the million-connection refactor
// claims: one replica's TCP engine holds ~1M established connections while
// the simulator's pending events stay few — armed per-connection timers are
// timer nodes of the scheduler's wheel, which PendingEvents does not count,
// and the events beside them stay O(1) in conns. The sweep
// runs a conns ladder and checks, rung by rung, that a 2-worker PDES run
// reproduces the sequential run's protocol state byte for byte.
//
// The bed is deliberately minimal: two machines joined by a real wire.Link
// (so PDES gets its lookahead and mailbox physics), each hosting raw
// tcpeng.Engines in one process — no NIC, driver, IP layer or sockets. The
// client side shards its connections across several engines (one per source
// address) because a single 4-tuple space caps out at the ephemeral range.

// csFrame is one wire frame delivered to a connHost.
type csFrame []byte

// csConnect asks the client host to open n connections from engine `from`.
type csConnect struct {
	from proto.Addr
	dst  proto.Addr
	port uint16
	n    int
}

// connHost hosts TCP engines on one machine of the conn-scale bed. It is
// the tcpeng.Env for every engine it hosts, the wire.Port for its link
// endpoint, and the sim.Handler for its process.
type connHost struct {
	ds   *sim.Simulator // the machine's scheduling domain
	proc *sim.Proc
	ctx  *sim.Context
	ep   wire.Endpoint

	engines map[proto.Addr]*tcpeng.Engine
	isn     uint64 // splitmix64 state: ISN entropy independent of sim RNG streams
}

func newConnHost(m *sim.Machine, name string, ep wire.Endpoint) *connHost {
	h := &connHost{ds: m.Sim(), ep: ep, engines: map[proto.Addr]*tcpeng.Engine{}}
	h.proc = sim.NewProc(m.Thread(0, 0), name, h, sim.ProcConfig{Component: "connscale"})
	ep.Attach(h)
	ep.Bind(m.Sim())
	return h
}

func (h *connHost) addEngine(addr proto.Addr, cfg tcpeng.Config) *tcpeng.Engine {
	e := tcpeng.NewEngine(h, addr, cfg)
	h.engines[addr] = e
	return e
}

// Receive implements wire.Port: frames land in the process inbox.
func (h *connHost) Receive(frame []byte) { h.proc.Deliver(csFrame(frame)) }

// HandleMessage implements sim.Handler.
func (h *connHost) HandleMessage(ctx *sim.Context, msg sim.Message) {
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
	case csConnect:
		ctx.Charge(int64(m.n) * 50)
		e := h.engines[m.from]
		for i := 0; i < m.n; i++ {
			if _, err := e.Connect(m.dst, m.port); err != nil {
				break
			}
		}
	}
	h.ctx = nil
}

// tcpeng.Env implementation.

func (h *connHost) Now() sim.Time { return h.ds.Now() }

func (h *connHost) SendSegment(c *tcpeng.Conn, seg tcpeng.OutSegment) {
	h.ctx.Charge(200)
	raw := proto.BuildTCP(
		proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: seg.Src, Dst: seg.Dst},
		seg.Hdr, seg.Payload)
	h.ep.Transmit(raw)
}

func (h *connHost) ArmTimer(c *tcpeng.Conn, k tcpeng.TimerKind, d sim.Time) {
	t := &c.Timers[k]
	h.ctx.Retimer(&t.Timer, d, t)
}

func (h *connHost) StopTimer(c *tcpeng.Conn, k tcpeng.TimerKind) {
	c.Timers[k].Stop()
}

func (h *connHost) Accepted(c *tcpeng.Conn) {
	// Keep the accept queue flat: this bed has no application, so pop the
	// FIFO head immediately (it is c — accepts arrive one at a time).
	if c.Listener != nil {
		c.Listener.Accept()
	}
}

func (h *connHost) Connected(c *tcpeng.Conn)            {}
func (h *connHost) DataReadable(c *tcpeng.Conn)         {}
func (h *connHost) SendSpace(c *tcpeng.Conn)            {}
func (h *connHost) ConnClosed(c *tcpeng.Conn, rst bool) {}
func (h *connHost) ConnRemoved(c *tcpeng.Conn)          {}

func (h *connHost) RandUint32() uint32 {
	h.isn += 0x9e3779b97f4a7c15
	z := h.isn
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z)
}

// ConnScalePoint is one measured rung of the connection ladder.
type ConnScalePoint struct {
	Conns         int
	Established   int    // server-side established connections at measurement
	PendingEvents int    // scheduled events resident at measurement
	PendingTimers int    // armed timers resident at measurement
	Cascades      uint64 // wheel cascade operations during the run
	BytesPerConn  float64
	WallSeconds   float64
	// PDESIdentical reports that a 2-worker PDES run of the same rung
	// reproduced the sequential run's digest.
	PDESIdentical bool

	digest string
}

// connScaleRun measures one rung: conns connections established through a
// batched, staggered connect storm, then a quiescent hold. The horizon is a
// fixed function of the rung, so sequential and PDES runs of the same rung
// execute an identical schedule.
func connScaleRun(seed int64, conns, pdesWorkers int) ConnScalePoint {
	const (
		port      = uint16(80)
		batchSize = 1024
		// One 1024-conn batch serializes ~137 µs of handshake frames per
		// direction at 10 Gb/s; a slightly larger stagger keeps the wire
		// backlog shallow so no handshake ever reaches its RTO.
		stagger = 150 * sim.Microsecond
		// Conns per client engine, safely inside the 1024..65535 ephemeral
		// range even after batch-granular round-robin imbalance.
		perEngine = 60000
	)
	heap0 := settledHeap()
	// The live heap grows to ~1.5 GB at the million rung; the default GOGC
	// re-scans it dozens of times during the storm for no benefit. The
	// collections in settledHeap keep the footprint measurement honest.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	start := time.Now()

	s := sim.New(seed)
	if pdesWorkers > 0 {
		s.EnablePDES(pdesWorkers)
	}
	link := wire.NewLink(s)
	srvM := sim.NewMachine(s, "server", 1, 1, 3_000_000_000)
	cliM := sim.NewMachine(s, "client", 1, 1, 3_000_000_000)
	srv := newConnHost(srvM, "srv", link.End(0))
	cli := newConnHost(cliM, "cli", link.End(1))

	srvIP := proto.IPv4(10, 0, 0, 1)
	scfg := tcpeng.DefaultConfig()
	// One armed timer per established conn: the idle guard, far beyond the
	// horizon.
	scfg.Guard.IdleDeadline = 30 * sim.Second
	se := srv.addEngine(srvIP, scfg)
	if _, err := se.Listen(proto.Addr{}, port, conns+16); err != nil {
		panic(err)
	}

	ccfg := tcpeng.DefaultConfig()
	ccfg.EphemeralLo, ccfg.EphemeralHi = 1024, 65535
	numCli := (conns + perEngine - 1) / perEngine
	cliIPs := make([]proto.Addr, numCli)
	for i := range cliIPs {
		cliIPs[i] = proto.IPv4(10, 0, byte(1+i/250), byte(1+i%250))
		cli.addEngine(cliIPs[i], ccfg)
	}

	// The connect storm: fixed-size batches round-robined across client
	// engines at a fixed stagger. Everything is scheduled up front, so the
	// event schedule is a pure function of (seed, conns).
	at := sim.Time(0)
	for remaining, i := conns, 0; remaining > 0; i++ {
		n := batchSize
		if n > remaining {
			n = remaining
		}
		remaining -= n
		s.DeliverAt(at, cli.proc, csConnect{
			from: cliIPs[i%numCli], dst: srvIP, port: port, n: n})
		at += stagger
	}

	// Horizon: storm end + handshake drain + one client RTO, so a handshake
	// that lost a segment would have retransmitted; the only resident timers
	// are then the servers' idle guards.
	s.RunUntil(at + 200*sim.Millisecond)

	heap1 := settledHeap()

	ts := s.TimerStats()
	p := ConnScalePoint{
		Conns:         conns,
		Established:   se.NumEstablished(),
		PendingEvents: s.PendingEvents(),
		PendingTimers: ts.Pending,
		Cascades:      ts.Cascades,
		WallSeconds:   time.Since(start).Seconds(),
	}
	if p.Established > 0 {
		p.BytesPerConn = float64(heap1-heap0) / float64(p.Established)
	}

	d := md5.New()
	fmt.Fprintf(d, "now=%d est=%d %+v", s.Now(), p.Established, se.Stats())
	for _, ip := range cliIPs {
		fmt.Fprintf(d, "%+v", cli.engines[ip].Stats())
	}
	p.digest = fmt.Sprintf("%x", d.Sum(nil))
	return p
}

// settledHeap returns the live heap with the buffer pools emptied. The first
// collection moves what sync.Pools hold into their victim caches, the
// second frees it: frames released to the pool and awaiting reuse are
// not connection state.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// connScaleLadder measures the conns ladder. Every rung additionally runs
// under 2-worker PDES to verify digest identity.
func connScaleLadder(o Options, conns []int) []ConnScalePoint {
	var points []ConnScalePoint
	for _, n := range conns {
		p := connScaleRun(o.seed(), n, 0)
		p.PDESIdentical = p.digest == connScaleRun(o.seed(), n, 2).digest
		points = append(points, p)
	}
	return points
}

// connScaleConns picks the ladder for the options.
func connScaleConns(o Options) []int {
	if o.Quick {
		return []int{512, 2048}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// ConnScale runs the connection-scale campaign and reports it as a table.
func ConnScale(o Options) *Result {
	res := &Result{Name: "Connection scale: one replica's engine under a conns ladder"}
	points := connScaleLadder(o, connScaleConns(o))
	tab := &report.Table{
		Title: "Established connections vs simulator load (idle guard armed per conn)",
		Columns: []string{"conns", "established", "pending events",
			"pending timers", "cascades", "B/conn", "wall", "seq==pdes2"},
	}
	for _, p := range points {
		ident := "NO"
		if p.PDESIdentical {
			ident = "yes"
		}
		tab.AddRow(
			fmt.Sprintf("%d", p.Conns),
			fmt.Sprintf("%d", p.Established),
			fmt.Sprintf("%d", p.PendingEvents),
			fmt.Sprintf("%d", p.PendingTimers),
			fmt.Sprintf("%d", p.Cascades),
			fmt.Sprintf("%.0f", p.BytesPerConn),
			fmt.Sprintf("%.2fs", p.WallSeconds),
			ident)
	}
	res.Tables = append(res.Tables, tab)
	res.Notef("every established conn arms a 30s idle-guard timer; \"pending events\" counts scheduled events, \"pending timers\" armed timers, both in the one scheduler wheel")
	res.Notef("pending events stay O(1) in conns: an armed timer is a timer node of the wheel, never an event")
	res.Notef("B/conn is heap growth per established connection, both endpoints plus wheel entries included")
	res.Notef("seq==pdes2: the same rung re-run under 2-worker PDES reproduces identical protocol-state digests")
	return res
}
