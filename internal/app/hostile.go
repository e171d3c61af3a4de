package app

import (
	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/nicdev"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// This file is the adversarial workload engine: hostile client behaviours
// that attack a server instead of loading it. Three archetypes are
// modelled, each a classic of the genre:
//
//   - Slowloris: complete the handshake, then trickle request-header bytes
//     one at a time forever, holding a connection slot without ever issuing
//     a servable request. Defeated by the header-progress deadline
//     (tcpeng.GuardConfig.HeaderDeadline/HeaderMinBytes).
//   - SYNFlood: blast handshake-opening SYNs from spoofed in-subnet source
//     addresses and never complete them, exhausting the listener's
//     half-open (embryonic) backlog. Defeated by the bounded SYN backlog
//     with deterministic oldest-first shedding (GuardConfig.SynBacklog).
//   - ConnChurn: open fully legitimate connections as fast as possible and
//     abandon them immediately, burning connection-setup work, filter
//     programming and accept-queue slots. No guard bounds it: partitioning
//     confines it to the replicas its flows hash to.
//
// All three support aiming: with a PortPlan the attacker fixes each
// connection's local port, and therefore its 4-tuple, and therefore the
// flow hash the victim's RSS computes — steering the whole attack onto one
// chosen replica (under hash placement; least-loaded placement resists
// aiming because placement does not depend on the tuple).

// PortPlan yields the local port for each successive attack connection
// (0 = let the stack pick an ephemeral port). Plans must be deterministic:
// campaigns derive them from the flow hash, not from randomness.
type PortPlan func() uint16

// Client-side cycle costs of the attackers' unit of work.
const (
	slCyclesPerSend = 500  // one trickled header byte (Slowloris)
	flCyclesPerSyn  = 600  // one forged SYN frame (SYNFlood)
	ccCyclesPerConn = 1000 // one open/abandon cycle (ConnChurn)
)

// ---- Slowloris ----

// SlowlorisConfig configures one slow-header attacker process.
type SlowlorisConfig struct {
	Target proto.Addr
	Port   uint16
	// Conns is the number of connections held open concurrently.
	Conns int
	// Ports optionally aims the attack (see PortPlan).
	Ports PortPlan
}

// SlowlorisStats counts attacker-side activity.
type SlowlorisStats struct {
	ConnsOpened   uint64
	BytesTrickled uint64
	// Reaped counts connections the server reset — with guards enabled,
	// the slow-read timeout firing.
	Reaped     uint64
	ConnErrors uint64
}

// Slowloris is one slow-header attacker process.
type Slowloris struct {
	proc    *sim.Proc
	lib     *socketlib.Lib
	cfg     SlowlorisConfig
	stats   SlowlorisStats
	running bool
	gen     uint64
	arena   bufpool.Arena
}

type slConn struct {
	sock *socketlib.Socket
	gen  uint64
	sent int
	done bool
}

type slTick struct {
	c   *slConn
	gen uint64
}

type slStart struct{}

// slPreamble opens a plausible request; slPad is trickled forever after it
// — header lines that never end in the blank line a parser waits for.
const (
	slPreamble = "GET /index.html HTTP/1.1\r\nHost: sut\r\n"
	slPad      = "X-Pad: aaaaaaaaaaaaaaaa\r\n"
)

// slowlorisInterval paces the single-byte header sends: slow enough to
// starve, fast enough to look alive to naive idle timers.
const slowlorisInterval = 2 * sim.Millisecond

// NewSlowloris creates a slow-header attacker on thread th.
func NewSlowloris(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg SlowlorisConfig) *Slowloris {
	if cfg.Conns == 0 {
		cfg.Conns = 8
	}
	a := &Slowloris{cfg: cfg}
	a.proc = sim.NewProc(th, name, a, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	a.lib = socketlib.New(a.proc, syscallProc, ipcCosts)
	return a
}

// Start opens the configured number of held connections.
func (a *Slowloris) Start() { a.proc.Deliver(slStart{}) }

// HandleMessage implements sim.Handler.
func (a *Slowloris) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case slStart:
		a.running = true
		for i := 0; i < a.cfg.Conns; i++ {
			a.openConn(ctx)
		}
	case slTick:
		if m.c.gen == m.gen && !m.c.done {
			a.trickle(ctx, m.c)
		}
	}
}

func (a *Slowloris) openConn(ctx *sim.Context) {
	if !a.running {
		return
	}
	a.gen++
	a.stats.ConnsOpened++
	c := &slConn{gen: a.gen}
	var lp uint16
	if a.cfg.Ports != nil {
		lp = a.cfg.Ports()
	}
	s := a.lib.ConnectFrom(ctx, a.cfg.Target, a.cfg.Port, lp)
	c.sock = s
	s.Ctx = c
	s.OnConnect = func(ctx *sim.Context, err error) {
		if err != nil {
			a.connGone(ctx, c, false)
			return
		}
		a.trickle(ctx, c)
	}
	// Responses are not expected; drain anything the server says.
	s.OnData = func(ctx *sim.Context, data []byte, eof bool) {}
	s.OnClosed = func(ctx *sim.Context, reset bool, err error) { a.connGone(ctx, c, reset) }
}

// trickle sends the next single header byte and re-arms the pacing timer.
func (a *Slowloris) trickle(ctx *sim.Context, c *slConn) {
	ctx.Charge(slCyclesPerSend)
	var b byte
	if c.sent < len(slPreamble) {
		b = slPreamble[c.sent]
	} else {
		b = slPad[(c.sent-len(slPreamble))%len(slPad)]
	}
	c.sent++
	a.stats.BytesTrickled++
	ref := a.arena.Alloc(1)
	ref.B[0] = b
	c.sock.SendRef(ctx, ref)
	ctx.TimerAfter(slowlorisInterval, slTick{c: c, gen: c.gen})
}

func (a *Slowloris) connGone(ctx *sim.Context, c *slConn, reset bool) {
	if c.done {
		return
	}
	c.done = true
	if reset {
		a.stats.Reaped++
	} else {
		a.stats.ConnErrors++
	}
	a.openConn(ctx)
}

// ---- SYN flood ----

// SYNFloodConfig configures one SYN flooder process. The flood bypasses
// the client's own TCP stack entirely: raw Ethernet/IP/TCP SYN frames with
// spoofed in-subnet source addresses are injected straight at the NIC
// driver, so the victim's SYN-ACKs go to addresses that never answer ARP
// and the half-open connections linger until retransmission gives up (or a
// SynBacklog guard sheds them).
type SYNFloodConfig struct {
	Target    proto.Addr
	TargetMAC proto.MAC
	// SrcMAC is the attacking host's NIC address (frames must carry a valid
	// L2 source to cross the link).
	SrcMAC proto.MAC
	Port   uint16
	// Interval paces bursts (default 50 µs).
	Interval sim.Time
	// Burst is the number of SYNs per interval (default 4).
	Burst int
	// Spoof maps the i-th SYN to its spoofed source address and port. The
	// default cycles 50 unassigned addresses of the target's /24 and walks
	// the port space deterministically.
	Spoof func(i uint64) (proto.Addr, uint16)
}

// SYNFloodStats counts flood activity.
type SYNFloodStats struct{ SynsSent uint64 }

// SYNFlood is one SYN flooder process.
type SYNFlood struct {
	proc    *sim.Proc
	drv     *ipc.Conn
	cfg     SYNFloodConfig
	stats   SYNFloodStats
	running bool
	gen     uint64
	sent    uint64
}

type flTick struct{ gen uint64 }
type flStart struct{}

// NewSYNFlood creates a SYN flooder on thread th, injecting frames at the
// host's NIC driver process.
func NewSYNFlood(th *sim.HWThread, name string, driverProc *sim.Proc, ipcCosts ipc.Costs, cfg SYNFloodConfig) *SYNFlood {
	if cfg.Interval == 0 {
		cfg.Interval = 50 * sim.Microsecond
	}
	if cfg.Burst == 0 {
		cfg.Burst = 4
	}
	if cfg.Spoof == nil {
		base := cfg.Target
		cfg.Spoof = func(i uint64) (proto.Addr, uint16) {
			src := base
			src[3] = byte(200 + i%50)
			return src, uint16(1024 + (i*7919)%60000)
		}
	}
	f := &SYNFlood{cfg: cfg}
	f.proc = sim.NewProc(th, name, f, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	f.drv = ipc.New(driverProc, ipcCosts)
	return f
}

// Stats returns a snapshot of the counters.
func (f *SYNFlood) Stats() SYNFloodStats { return f.stats }

// Start begins flooding.
func (f *SYNFlood) Start() { f.proc.Deliver(flStart{}) }

// HandleMessage implements sim.Handler.
func (f *SYNFlood) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case flStart:
		if f.running {
			return
		}
		f.running = true
		f.gen++
		f.burst(ctx)
	case flTick:
		if f.running && m.gen == f.gen {
			f.burst(ctx)
		}
	}
}

// burst injects one burst of spoofed SYNs and re-arms the pacing timer.
func (f *SYNFlood) burst(ctx *sim.Context) {
	for i := 0; i < f.cfg.Burst; i++ {
		ctx.Charge(flCyclesPerSyn)
		src, sport := f.cfg.Spoof(f.sent)
		tcp := proto.TCPHeader{
			SrcPort: sport, DstPort: f.cfg.Port,
			Seq: uint32(f.sent) * 2654435761, Flags: proto.TCPSyn, Window: 65535,
		}
		raw := proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&tcp, 0))[:0],
			proto.EthernetHeader{Dst: f.cfg.TargetMAC, Src: f.cfg.SrcMAC, Type: proto.EtherTypeIPv4},
			proto.IPv4Header{TTL: 64, Protocol: proto.ProtoTCP, Src: src, Dst: f.cfg.Target},
			tcp, nil)
		f.drv.Send(ctx, nicdev.NewTxFrame(ctx.Sim, raw))
		f.sent++
		f.stats.SynsSent++
	}
	ctx.TimerAfter(f.cfg.Interval, flTick{gen: f.gen})
}

// ---- Connection churn ----

// ConnChurnConfig configures one connection-churn attacker: fully
// legitimate handshakes opened as fast as possible and abandoned at once,
// burning setup work, filter programming and accept-queue slots.
type ConnChurnConfig struct {
	Target proto.Addr
	Port   uint16
	// Conns is the number of connection attempts kept in flight.
	Conns int
	// Hold keeps each established connection open before abandoning it
	// (default 0: abort the instant the handshake completes).
	Hold sim.Time
	// Ports optionally aims the attack (see PortPlan).
	Ports PortPlan
}

// ConnChurnStats counts churn activity.
type ConnChurnStats struct {
	Errors uint64
}

// ConnChurn is one connection-churn attacker process.
type ConnChurn struct {
	proc    *sim.Proc
	lib     *socketlib.Lib
	cfg     ConnChurnConfig
	stats   ConnChurnStats
	running bool
	gen     uint64
}

type ccConn struct {
	sock *socketlib.Socket
	gen  uint64
	done bool
}

type ccHold struct {
	c   *ccConn
	gen uint64
}

type ccStart struct{}

// NewConnChurn creates a churn attacker on thread th.
func NewConnChurn(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg ConnChurnConfig) *ConnChurn {
	if cfg.Conns == 0 {
		cfg.Conns = 8
	}
	a := &ConnChurn{cfg: cfg}
	a.proc = sim.NewProc(th, name, a, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	a.lib = socketlib.New(a.proc, syscallProc, ipcCosts)
	return a
}

// Start begins churning.
func (a *ConnChurn) Start() { a.proc.Deliver(ccStart{}) }

// HandleMessage implements sim.Handler.
func (a *ConnChurn) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case ccStart:
		a.running = true
		for i := 0; i < a.cfg.Conns; i++ {
			a.openConn(ctx)
		}
	case ccHold:
		if m.c.gen == m.gen && !m.c.done {
			a.abandon(ctx, m.c)
		}
	}
}

func (a *ConnChurn) openConn(ctx *sim.Context) {
	if !a.running {
		return
	}
	a.gen++
	c := &ccConn{gen: a.gen}
	var lp uint16
	if a.cfg.Ports != nil {
		lp = a.cfg.Ports()
	}
	s := a.lib.ConnectFrom(ctx, a.cfg.Target, a.cfg.Port, lp)
	c.sock = s
	s.Ctx = c
	s.OnConnect = func(ctx *sim.Context, err error) {
		ctx.Charge(ccCyclesPerConn)
		if err != nil {
			a.connGone(ctx, c, true)
			return
		}
		if a.cfg.Hold > 0 {
			ctx.TimerAfter(a.cfg.Hold, ccHold{c: c, gen: c.gen})
			return
		}
		a.abandon(ctx, c)
	}
	s.OnData = func(ctx *sim.Context, data []byte, eof bool) {}
	s.OnClosed = func(ctx *sim.Context, reset bool, err error) { a.connGone(ctx, c, false) }
}

// abandon resets the established connection and opens a replacement.
func (a *ConnChurn) abandon(ctx *sim.Context, c *ccConn) {
	if c.done {
		return
	}
	c.done = true
	c.sock.Abort(ctx)
	a.openConn(ctx)
}

func (a *ConnChurn) connGone(ctx *sim.Context, c *ccConn, isError bool) {
	if c.done {
		return
	}
	c.done = true
	if isError {
		a.stats.Errors++
	}
	a.openConn(ctx)
}
