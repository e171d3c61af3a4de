package baseline

import (
	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/pfilter"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/udpeng"
)

// kernelHost is the shared kernel state every context operates on: one
// TCP engine, one IP engine, one UDP engine, one filter — the monolithic
// "shared everything" model of §2. Because the simulation is serialized,
// the sharing is safe; its *cost* is what the lock/bounce model charges.
type kernelHost struct {
	sys   *System
	costs Costs

	tcp    *tcpeng.Engine
	ip     *ipeng.Engine
	udp    *udpeng.Engine
	filter *pfilter.Filter

	// Current dispatch: which context runs, with what sim context.
	ctx     *sim.Context
	curProc *sim.Proc

	conns     map[uint64]*tcpeng.Conn
	listeners map[uint64]*tcpeng.Listener
	udpSocks  map[uint64]*udpSockCtx
	nextUDP   uint64
	appConns  map[*sim.Proc]*ipc.Conn

	stats Stats
}

type sockCtx struct {
	app   *sim.Proc
	reqID uint64
	// home is the kernel context the owning application issues syscalls
	// to; every event for this socket reports it as the Stack identity so
	// the socket library's (stack, connID) keys stay stable even though
	// RX processing happens on other contexts.
	home        *sim.Proc
	established bool
	pending     []byte
	wantSpace   bool
}

type listenCtx struct {
	app   *sim.Proc
	reqID uint64
	home  *sim.Proc
}

type udpSockCtx struct {
	app  *sim.Proc
	id   uint64
	sock *udpeng.Socket
}

// tickMsg mirrors the stack package's internal deferred-closure message;
// TCP timers fire as *tcpeng.ConnTimer nodes.
type tickMsg struct{ fn func() }

func newKernelHost(s *System) *kernelHost {
	h := &kernelHost{
		sys: s, costs: s.cfg.Costs,
		conns:     map[uint64]*tcpeng.Conn{},
		listeners: map[uint64]*tcpeng.Listener{},
		udpSocks:  map[uint64]*udpSockCtx{},
		appConns:  map[*sim.Proc]*ipc.Conn{},
	}
	return h
}

// finishInit builds the shared engines once the kernel procs exist.
func (h *kernelHost) finishInit() {
	h.filter = pfilter.New()
	h.ip = ipeng.NewEngine(h, h.sys.cfg.IP)
	h.udp = udpeng.NewEngine(h, h.sys.cfg.IP.Addr)
	h.tcp = tcpeng.NewEngine(h, h.sys.cfg.IP.Addr, h.sys.cfg.TCP)
}

// charge bills kernel cycles scaled by the tuning's locality factor.
func (h *kernelHost) charge(cycles int64) {
	h.ctx.Charge(int64(float64(cycles) * h.sys.cfg.Tuning.LocalityFactor()))
}

// lock bills one locked shared-structure operation: base cost plus
// contention and cache-line bouncing that grow with the context count.
func (h *kernelHost) lock() {
	k := int64(len(h.sys.procs))
	c := h.costs.LockBase + (h.costs.LockPerContender+h.costs.CacheBouncePerContender)*(k-1)
	h.stats.LockedOps++
	h.stats.LockCycles += c
	h.ctx.Charge(c)
}

// kernelHandler runs one kernel context.
type kernelHandler struct {
	h   *kernelHost
	idx int
}

// HandleMessage implements sim.Handler.
func (kh *kernelHandler) HandleMessage(ctx *sim.Context, msg sim.Message) {
	h := kh.h
	prevCtx, prevProc := h.ctx, h.curProc
	h.ctx, h.curProc = ctx, h.sys.procs[kh.idx]
	defer func() { h.ctx, h.curProc = prevCtx, prevProc }()

	switch m := msg.(type) {
	case nicdev.QueueIRQ:
		h.stats.IRQs++
		frames := h.sys.cfg.NIC.DrainQueue(m.Queue)
		for i, f := range frames {
			frames[i] = nil
			h.stats.PacketsIn++
			h.charge(h.costs.SoftirqPerPacket)
			if h.filter.Check(f) == pfilter.Drop {
				f.Release()
				continue
			}
			h.charge(h.costs.IPIn)
			h.lock() // shared IP/conntrack structures
			h.ip.Input(f)
		}
		h.sys.cfg.NIC.RearmQueueIRQ(m.Queue)
	case tickMsg:
		m.fn()
	case *tcpeng.ConnTimer:
		h.charge(h.costs.TimerOp)
		h.lock()
		h.tcp.OnTimer(m.C, m.Kind)
	case stack.OpListen:
		h.charge(h.costs.SyscallOp)
		h.lock()
		h.stats.SyscallsIn++
		l, err := h.tcp.Listen(proto.Addr{}, m.Port, m.Backlog)
		if err == nil {
			l.Ctx = &listenCtx{app: m.App, reqID: m.ReqID, home: h.curProc}
			h.listeners[m.ReqID] = l
		}
		ackTo := m.App
		if m.ReplyTo != nil {
			ackTo = m.ReplyTo
		}
		h.sendApp(ackTo, stack.EvListening{ReqID: m.ReqID, Stack: h.curProc, Err: err})
	case stack.OpCloseListener:
		h.charge(h.costs.SyscallOp)
		h.lock()
		if l, ok := h.listeners[m.ReqID]; ok {
			delete(h.listeners, m.ReqID)
			l.Close()
		}
	case stack.OpConnect:
		h.charge(h.costs.TCPConnSetup + h.costs.SyscallOp)
		h.lock()
		h.stats.SyscallsIn++
		c, err := h.tcp.ConnectFrom(m.Addr, m.Port, m.LocalPort)
		if err != nil {
			h.sendApp(m.App, stack.EvConnected{ReqID: m.ReqID, Stack: h.curProc, Err: err})
			return
		}
		c.Ctx = &sockCtx{app: m.App, reqID: m.ReqID, home: h.curProc}
		h.conns[c.ID] = c
	case *stack.OpSend:
		// Pooled fast-path form (socketlib): once the bytes are absorbed the
		// box goes back to its pool and the Ref is released.
		h.opSend(m.ConnID, m.Data, m.WantSpace)
		m.Recycle()
	case stack.OpSend:
		h.opSend(m.ConnID, m.Data, m.WantSpace)
		m.Ref.Release()
	case stack.OpClose:
		if c, ok := h.conns[m.ConnID]; ok {
			h.charge(h.costs.SyscallOp)
			h.lock()
			c.Close()
		}
	case stack.OpAbort:
		if c, ok := h.conns[m.ConnID]; ok {
			h.charge(h.costs.SyscallOp)
			h.lock()
			c.Abort()
		}
	case stack.OpUDPBind:
		h.charge(h.costs.SyscallOp)
		h.lock()
		s, err := h.udp.Bind(m.Port)
		ev := stack.EvUDPBound{ReqID: m.ReqID, Stack: h.curProc, Err: err}
		if err == nil {
			h.nextUDP++
			sc := &udpSockCtx{app: m.App, id: h.nextUDP, sock: s}
			s.Ctx = sc
			h.udpSocks[sc.id] = sc
			ev.UDPID = sc.id
			ev.Port = s.Port()
		}
		h.sendApp(m.App, ev)
	case stack.OpUDPSendTo:
		if sc, ok := h.udpSocks[m.UDPID]; ok {
			h.charge(h.costs.SyscallOp)
			h.lock()
			sc.sock.SendTo(m.Addr, m.Port, m.Data)
		}
	case stack.OpUDPClose:
		if sc, ok := h.udpSocks[m.UDPID]; ok {
			h.charge(h.costs.SyscallOp)
			sc.sock.Close()
			delete(h.udpSocks, m.UDPID)
		}
	}
}

// opSend appends send-stream bytes to a connection: the shared body of the
// pooled (*stack.OpSend) and value (stack.OpSend) message forms. As in
// stack.tcpHost, sc.pending takes only what the send buffer refused and the
// caller releases data on return.
func (h *kernelHost) opSend(connID uint64, data []byte, wantSpace bool) {
	c, ok := h.conns[connID]
	if !ok {
		return
	}
	h.charge(h.costs.SyscallOp)
	h.lock()
	h.stats.SyscallsIn++
	sc := c.Ctx.(*sockCtx)
	if wantSpace {
		sc.wantSpace = true
	}
	if len(sc.pending) > 0 {
		sc.pending = append(sc.pending, data...)
		h.drainPending(c, sc)
	} else if n := c.Send(data); n < len(data) {
		sc.pending = append(sc.pending, data[n:]...)
	}
	h.maybeAdvertiseSpace(c, sc)
}

func (h *kernelHost) drainPending(c *tcpeng.Conn, sc *sockCtx) {
	for len(sc.pending) > 0 {
		n := c.Send(sc.pending)
		if n == 0 {
			return
		}
		sc.pending = sc.pending[n:]
	}
	sc.pending = nil
}

func (h *kernelHost) maybeAdvertiseSpace(c *tcpeng.Conn, sc *sockCtx) {
	if !sc.wantSpace {
		return
	}
	avail := c.SendSpaceFree() - len(sc.pending)
	if avail <= 0 {
		return
	}
	sc.wantSpace = false
	h.sendApp(sc.app, stack.EvSendSpace{Stack: sc.home, ConnID: c.ID, Available: avail})
}

func (h *kernelHost) sendApp(app *sim.Proc, ev sim.Message) {
	h.charge(h.costs.SockEvent)
	conn, ok := h.appConns[app]
	if !ok {
		conn = ipc.New(app, h.sys.cfg.IPC)
		h.appConns[app] = conn
	}
	conn.Send(h.ctx, ev)
}

// ---- ipeng.Env ----

// Now implements ipeng.Env and tcpeng.Env.
func (h *kernelHost) Now() sim.Time { return h.curProc.Sim().Now() }

// TransmitFrame implements ipeng.Env.
func (h *kernelHost) TransmitFrame(raw []byte) {
	h.charge(h.costs.IPOut)
	h.stats.PacketsOut++
	h.sys.cfg.NIC.Transmit(raw)
}

// TransmitTSO implements ipeng.Env.
func (h *kernelHost) TransmitTSO(eth proto.EthernetHeader, ip proto.IPv4Header, tcp proto.TCPHeader, payload []byte, mss int) {
	h.charge(h.costs.IPOut)
	h.stats.PacketsOut++
	h.sys.cfg.NIC.SendTSO(nicdev.TxTSO{Eth: eth, IP: ip, TCP: tcp, Payload: payload, MSS: mss})
}

// DeliverTransport implements ipeng.Env. Frame ownership arrives with the
// call; the engines copy what they keep, so every branch releases.
func (h *kernelHost) DeliverTransport(f *proto.Frame) {
	switch {
	case f.TCP != nil:
		h.charge(h.costs.TCPSegIn)
		h.lock()
		h.tcp.Input(f)
	case f.UDP != nil:
		h.charge(h.costs.IPIn)
		h.udp.Input(f)
	}
	f.Release()
}

// After implements ipeng.Env.
func (h *kernelHost) After(d sim.Time, fn func()) {
	h.ctx.TimerAfter(d, tickMsg{fn})
}

// ---- udpeng.Env ----

// Output implements udpeng.Env.
func (h *kernelHost) Output(dst proto.Addr, transport []byte) {
	h.ip.Output(dst, proto.ProtoUDP, transport)
}

// Deliver implements udpeng.Env. data aliases the inbound frame, which is
// released when UDP input returns, so the event carries its own copy.
func (h *kernelHost) Deliver(s *udpeng.Socket, src proto.Addr, srcPort uint16, data []byte) {
	if sc, ok := s.Ctx.(*udpSockCtx); ok {
		data = append([]byte(nil), data...)
		h.sendApp(sc.app, stack.EvUDPData{Stack: h.curProc, UDPID: sc.id, Src: src, SrcPort: srcPort, Data: data})
	}
}

// ---- tcpeng.Env ----

// SendSegment implements tcpeng.Env. A TSO super-segment is copied into a
// pooled buffer the IP engine and the NIC own from here on (ipeng.TSO).
func (h *kernelHost) SendSegment(c *tcpeng.Conn, seg tcpeng.OutSegment) {
	h.charge(h.costs.TCPSegOut)
	h.lock()
	if seg.TSO && len(seg.Payload) > seg.MSS {
		payload := append(bufpool.Get(len(seg.Payload))[:0], seg.Payload...)
		h.ip.OutputTSO(ipeng.TSO{TCP: seg.Hdr, Dst: seg.Dst, Payload: payload, MSS: seg.MSS})
		return
	}
	n := seg.Hdr.EncodedLen(len(seg.Payload))
	frame := seg.Hdr.Marshal(bufpool.Get(proto.TxHeadroom + n)[:proto.TxHeadroom], seg.Src, seg.Dst, seg.Payload)
	h.ip.OutputFrame(seg.Dst, proto.ProtoTCP, frame)
}

// ArmTimer implements tcpeng.Env. Timers fire on whichever kernel context
// armed them, as in Linux. The connection's intrusive node is its own fire
// message, so the arm/stop path allocates nothing.
func (h *kernelHost) ArmTimer(c *tcpeng.Conn, k tcpeng.TimerKind, d sim.Time) {
	t := &c.Timers[k]
	h.ctx.Retimer(&t.Timer, d, t)
}

// StopTimer implements tcpeng.Env.
func (h *kernelHost) StopTimer(c *tcpeng.Conn, k tcpeng.TimerKind) {
	c.Timers[k].Stop()
}

// Accepted implements tcpeng.Env: contended accept from the single shared
// listening socket (the very bottleneck MegaPipe/Affinity-Accept attack,
// §3.3).
func (h *kernelHost) Accepted(c *tcpeng.Conn) {
	h.charge(h.costs.TCPConnSetup)
	h.lock() // accept queue lock
	lc, ok := c.Listener.Ctx.(*listenCtx)
	if !ok {
		return
	}
	c.Listener.Accept()
	sc := &sockCtx{app: lc.app, established: true, home: lc.home}
	c.Ctx = sc
	h.conns[c.ID] = c
	ra, rp := c.RemoteAddr()
	h.sendApp(lc.app, stack.NewEvAccepted(lc.reqID, c.ID, lc.home, ra, rp, c.SendSpaceFree()))
}

// Connected implements tcpeng.Env.
func (h *kernelHost) Connected(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	sc.established = true
	h.sendApp(sc.app, stack.EvConnected{
		ReqID: sc.reqID, ConnID: c.ID, Stack: sc.home, SendBuf: c.SendSpaceFree(),
	})
}

// DataReadable implements tcpeng.Env.
func (h *kernelHost) DataReadable(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	data := c.Recv(0)
	eof := c.EOF()
	if len(data) == 0 && !eof {
		return
	}
	h.sendApp(sc.app, stack.NewEvData(sc.home, c.ID, data, eof))
}

// SendSpace implements tcpeng.Env.
func (h *kernelHost) SendSpace(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	h.drainPending(c, sc)
	h.maybeAdvertiseSpace(c, sc)
}

// ConnClosed implements tcpeng.Env.
func (h *kernelHost) ConnClosed(c *tcpeng.Conn, reset bool) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	if !sc.established {
		h.sendApp(sc.app, stack.EvConnected{ReqID: sc.reqID, Stack: sc.home, Err: c.Err})
		return
	}
	h.sendApp(sc.app, stack.NewEvClosed(sc.home, c.ID, reset, c.Err))
}

// ConnRemoved implements tcpeng.Env.
func (h *kernelHost) ConnRemoved(c *tcpeng.Conn) {
	delete(h.conns, c.ID)
}

// RandUint32 implements tcpeng.Env.
func (h *kernelHost) RandUint32() uint32 { return h.curProc.Sim().Rand().Uint32() }
