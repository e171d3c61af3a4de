package stack

import (
	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/udpeng"
)

// ipHost hosts the packet filter (PF), the IP engine and the UDP engine. In
// an engine set it shares the process(es) with tcpHost; in a
// multi-component replica it is the "IP process" of Fig. 3. PF holds no
// rules: every frame pays its check and passes.
type ipHost struct {
	s     *sim.Simulator
	costs *opCosts
	ctx   *sim.Context // current dispatch context

	ip  *ipeng.Engine
	udp *udpeng.Engine

	toTCP func(ctx *sim.Context, f *proto.Frame)
	out   Egress

	udpSocks map[uint64]*udpSockCtx
	nextUDP  uint64
	appConns map[*sim.Proc]*ipc.Conn
	ipcCosts ipc.Costs
}

// udpSockCtx binds a UDP socket to its owning application and to the stack
// process that bound it, which every datagram event names.
type udpSockCtx struct {
	app  *sim.Proc
	home *sim.Proc
	id   uint64
	sock *udpeng.Socket
}

// Egress is where the IP layer hands finished frames: the NIC driver's
// channel for a NEaT replica, the NIC itself for the Linux baseline.
type Egress interface {
	Transmit(ctx *sim.Context, raw []byte)
	TransmitTSO(ctx *sim.Context, t nicdev.TxTSO)
}

// driverEgress sends frames to the NIC driver process.
type driverEgress struct{ c *ipc.Conn }

func (d driverEgress) Transmit(ctx *sim.Context, raw []byte) {
	d.c.Send(ctx, nicdev.NewTxFrame(ctx.Sim, raw))
}

func (d driverEgress) TransmitTSO(ctx *sim.Context, t nicdev.TxTSO) {
	d.c.Send(ctx, nicdev.NewTxTSO(ctx.Sim, t))
}

// The host's dispatch context (h.ctx) is installed for the whole
// activation by the owning handler's BeginBatch, so engine callbacks can
// charge cycles and emit messages without a per-message context swap.

// inputFrame is the RX entry point of the stack.
func (h *ipHost) inputFrame(ctx *sim.Context, f *proto.Frame) {
	ctx.Charge(h.costs.FilterCheck)
	h.costs.chargeLocked(ctx, h.costs.IPIn)
	h.ip.Input(f)
}

// handleOp processes UDP socket operations.
func (h *ipHost) handleOp(ctx *sim.Context, msg sim.Message) bool {
	switch m := msg.(type) {
	case OpUDPBind:
		h.costs.chargeLocked(ctx, h.costs.SockOp)
		s, err := h.udp.Bind(m.Port)
		ev := EvUDPBound{ReqID: m.ReqID, Stack: ctx.Proc, Err: err}
		if err == nil {
			h.nextUDP++
			sc := &udpSockCtx{app: m.App, home: ctx.Proc, id: h.nextUDP, sock: s}
			s.Ctx = sc
			h.udpSocks[sc.id] = sc
			ev.UDPID = sc.id
			ev.Port = s.Port()
		}
		h.sendApp(ctx, m.App, ev)
		return true
	case OpUDPSendTo:
		if sc, ok := h.udpSocks[m.UDPID]; ok {
			h.costs.chargeLocked(ctx, h.costs.UDPOut)
			sc.sock.SendTo(m.Addr, m.Port, m.Data)
		}
		return true
	case OpUDPClose:
		if sc, ok := h.udpSocks[m.UDPID]; ok {
			ctx.Charge(h.costs.SockOp)
			sc.sock.Close()
			delete(h.udpSocks, m.UDPID)
		}
		return true
	}
	return false
}

// sendApp posts an event to an application process.
func (h *ipHost) sendApp(ctx *sim.Context, app *sim.Proc, ev sim.Message) {
	ctx.Charge(h.costs.SockEvent)
	conn, ok := h.appConns[app]
	if !ok {
		conn = ipc.New(app, h.ipcCosts)
		h.appConns[app] = conn
	}
	conn.Send(ctx, ev)
}

// ---- ipeng.Env ----

// TransmitFrame implements ipeng.Env.
func (h *ipHost) TransmitFrame(raw []byte) {
	h.ctx.Charge(h.costs.IPOut)
	h.out.Transmit(h.ctx, raw)
}

// TransmitTSO implements ipeng.Env.
func (h *ipHost) TransmitTSO(eth proto.EthernetHeader, ip proto.IPv4Header, tcp proto.TCPHeader, payload []byte, mss int) {
	h.ctx.Charge(h.costs.IPOut)
	h.out.TransmitTSO(h.ctx, nicdev.TxTSO{Eth: eth, IP: ip, TCP: tcp, Payload: payload, MSS: mss})
}

// DeliverTransport implements ipeng.Env. Frame ownership arrives with the
// call; every branch hands it on or releases it.
func (h *ipHost) DeliverTransport(f *proto.Frame) {
	switch {
	case f.TCP != nil:
		h.toTCP(h.ctx, f)
	case f.UDP != nil:
		h.ctx.Charge(h.costs.UDPIn)
		h.udp.Input(f)
		f.Release()
	default:
		// ICMP echo requests were answered inside the IP engine; anything
		// else has no consumer.
		f.Release()
	}
}

// After implements ipeng.Env.
func (h *ipHost) After(d sim.Time, fn func()) {
	h.ctx.TimerAfter(d, tickMsg{fn})
}

// ---- udpeng.Env ----

// Output implements udpeng.Env.
func (h *ipHost) Output(dst proto.Addr, transport []byte) {
	h.ip.Output(dst, proto.ProtoUDP, transport)
}

// Deliver implements udpeng.Env. data aliases the inbound frame, which is
// released when UDP input returns, so the event carries its own copy.
func (h *ipHost) Deliver(s *udpeng.Socket, src proto.Addr, srcPort uint16, data []byte) {
	sc, ok := s.Ctx.(*udpSockCtx)
	if !ok {
		return
	}
	data = append([]byte(nil), data...)
	h.sendApp(h.ctx, sc.app, EvUDPData{Stack: sc.home, UDPID: sc.id, Src: src, SrcPort: srcPort, Data: data})
}
