package stack

import (
	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// tcpHost hosts the TCP engine and the TCP-side socket bookkeeping. In an
// engine set it shares the process(es) with ipHost; in a multi-component
// replica it is the "TCP process" of Fig. 3 — the one stateful component
// whose crash loses connections (§6.6).
type tcpHost struct {
	r     *Replica
	s     *sim.Simulator
	costs *opCosts
	ctx   *sim.Context

	tcp *tcpeng.Engine

	// outFrame hands a headroom TX frame (transport marshalled at
	// proto.TxHeadroom in a pooled buffer) to the IP layer, which fills the
	// L2/L3 headers in place — no per-hop copy. Ownership of the buffer
	// transfers with the call; the IP side eventually Puts or transmits it.
	outFrame func(ctx *sim.Context, dst proto.Addr, p proto.IPProto, frame []byte)
	outTSO   func(ctx *sim.Context, t ipeng.TSO)

	// host numbers this TCP host among its simulator's TCP hosts; table
	// holds the connections applications address by Handle, free the
	// table's empty slots.
	host  uint32
	table []connSlot
	free  []uint32

	listeners map[uint64]*tcpeng.Listener // by the app's listen ReqID
	appConns  map[*sim.Proc]*ipc.Conn
	ipcCosts  ipc.Costs
}

// tcpHosts numbers the TCP hosts of one simulator, so that a socket
// library can index the handles of several stacks without hashing.
var tcpHosts = sim.NewLocal(func(*sim.Simulator) *uint32 { return new(uint32) })

// connSlot is one entry of a TCP host's connection table.
type connSlot struct {
	c   *tcpeng.Conn // nil while the slot is free
	gen uint32
}

// open gives c a slot of the connection table and returns its handle.
func (h *tcpHost) open(c *tcpeng.Conn) Handle {
	var i uint32
	if n := len(h.free); n > 0 {
		i = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		i = uint32(len(h.table))
		h.table = append(h.table, connSlot{})
	}
	h.table[i].c = c
	return Handle{Host: h.host, Slot: i, Gen: h.table[i].gen}
}

// lookup returns the connection hd names, or nil if hd is stale.
func (h *tcpHost) lookup(hd Handle) *tcpeng.Conn {
	if hd.Host != h.host || int(hd.Slot) >= len(h.table) || h.table[hd.Slot].gen != hd.Gen {
		return nil
	}
	return h.table[hd.Slot].c
}

// release frees c's slot if c still holds it; the new generation makes
// every copy of the handle stale.
func (h *tcpHost) release(c *tcpeng.Conn, hd Handle) {
	if h.lookup(hd) != c {
		return
	}
	e := &h.table[hd.Slot]
	e.c = nil
	e.gen++
	h.free = append(h.free, hd.Slot)
}

// sockCtx is the per-connection socket bookkeeping. home is the stack
// process that created the socket — the one running the connect, or the
// listener's home for an accepted connection. Every event for the socket
// names it, so the socket library's (stack, connID) keys hold even where
// other processes run the socket's receive path (the Linux baseline's
// kernel contexts).
type sockCtx struct {
	app         *sim.Proc
	appConn     *ipc.Conn // the channel to app
	home        *sim.Proc
	h           Handle // the connection's slot in the host's table
	reqID       uint64 // OpConnect correlation (active opens)
	established bool
	pending     []byte // OpSend bytes not yet accepted by the engine
	wantSpace   bool   // app asked to be told when space frees
}

// listenCtx binds a listener subsocket to its owning application and to
// the stack process that created it.
type listenCtx struct {
	app     *sim.Proc
	appConn *ipc.Conn // the channel to app, inherited by accepted sockets
	home    *sim.Proc
	reqID   uint64
}

// The host's dispatch context (h.ctx) is installed for the whole
// activation by the owning handler's BeginBatch, so methods invoked from
// HandleMessage run with it already in place.

func (h *tcpHost) onTimer(ctx *sim.Context, m *tcpeng.ConnTimer) {
	h.costs.chargeLocked(ctx, h.costs.TimerOp)
	h.tcp.OnTimer(m.C, m.Kind)
}

// segmentIn runs one inbound TCP segment; frame ownership arrives with the
// call, and TCP input copies what it keeps.
func (h *tcpHost) segmentIn(ctx *sim.Context, f *proto.Frame) {
	h.costs.chargeLocked(ctx, h.costs.TCPSegIn)
	h.tcp.Input(f)
	f.Release()
}

// handleOp processes TCP socket operations; reports whether msg was one.
func (h *tcpHost) handleOp(ctx *sim.Context, msg sim.Message) bool {
	switch m := msg.(type) {
	case OpListen:
		h.costs.chargeLocked(ctx, h.costs.SockOp)
		l, err := h.tcp.Listen(proto.Addr{}, m.Port, m.Backlog)
		if err == nil {
			l.Ctx = &listenCtx{app: m.App, appConn: h.appConn(m.App), home: ctx.Proc, reqID: m.ReqID}
			h.listeners[m.ReqID] = l
		}
		ackTo := m.App
		if m.ReplyTo != nil {
			ackTo = m.ReplyTo
		}
		h.sendApp(ctx, ackTo, EvListening{ReqID: m.ReqID, Err: err})
		return true
	case OpConnect:
		h.costs.chargeLocked(ctx, h.costs.connect)
		c, err := h.tcp.ConnectFrom(m.Addr, m.Port, m.LocalPort)
		if err != nil {
			h.sendApp(ctx, m.App, EvConnected{ReqID: m.ReqID, Stack: ctx.Proc, Err: err})
			return true
		}
		c.Ctx = &sockCtx{app: m.App, appConn: h.appConn(m.App), home: ctx.Proc, h: h.open(c), reqID: m.ReqID}
		if h.r.OnConnCreated != nil {
			h.r.OnConnCreated(h.r, c)
		}
		return true
	case *OpSend:
		// Once Data has been absorbed the box goes back to its pool and the
		// Ref is released.
		h.opSend(ctx, m.Conn, m.Data, m.WantSpace)
		m.Recycle()
		return true
	case *OpClose:
		if c := h.lookup(m.Conn); c != nil {
			h.costs.chargeLocked(ctx, h.costs.SockOp)
			if m.Abort {
				c.Abort()
			} else {
				c.Close()
			}
		}
		m.Recycle()
		return true
	case OpCloseListener:
		if l, ok := h.listeners[m.ReqID]; ok {
			h.costs.chargeLocked(ctx, h.costs.SockOp)
			delete(h.listeners, m.ReqID)
			l.Close()
		}
		return true
	case OpCheckpoint:
		snap := h.tcp.Snapshot()
		// Checkpointing is the run-time overhead the paper warns about
		// (§2.1): a process-image snapshot costs a fixed quiesce+copy of
		// the process plus the per-connection state.
		ctx.Charge(300_000 + 3*int64(snap.StateBytes()))
		if h.r.OnCheckpoint != nil {
			h.r.OnCheckpoint(h.r, snap)
		}
		return true
	case OpRestore:
		h.restore(ctx, m.Snap)
		return true
	}
	return false
}

// opSend appends send-stream bytes to a connection. The engine copies
// straight from the caller's bytes and sc.pending takes only what the send
// buffer had no room for, so on return nothing refers to data any more and
// the caller releases it.
func (h *tcpHost) opSend(ctx *sim.Context, hd Handle, data []byte, wantSpace bool) {
	c := h.lookup(hd)
	if c == nil {
		return // connection already gone; app learns via EvClosed
	}
	sc := c.Ctx.(*sockCtx)
	if wantSpace {
		sc.wantSpace = true
	}
	h.costs.chargeLocked(ctx, h.costs.SockOp)
	if len(sc.pending) > 0 {
		// Refused bytes are still waiting: these go behind them.
		sc.pending = append(sc.pending, data...)
		h.drainPending(c, sc)
	} else if n := c.Send(data); n < len(data) {
		sc.pending = append(sc.pending, data[n:]...)
	}
	h.maybeAdvertiseSpace(c, sc)
}

// restore loads a checkpoint into this (fresh) TCP host: PCBs come back
// with their socket bookkeeping re-homed to this process, the manager hooks
// re-register them (and re-install NIC filters), and the owning
// applications are told the new home of each connection.
func (h *tcpHost) restore(ctx *sim.Context, snap *tcpeng.Snapshot) {
	if snap == nil {
		return
	}
	ctx.Charge(2000 + int64(snap.StateBytes())/2)
	conns := h.tcp.Restore(snap)
	for _, ls := range snap.Listeners {
		if lc, ok := ls.Ctx.(*listenCtx); ok {
			lc.home, lc.appConn = ctx.Proc, h.appConn(lc.app)
			if l := h.tcp.LookupListener(ls.Port); l != nil {
				h.listeners[lc.reqID] = l
			}
		}
	}
	n := 0
	for i, cs := range snap.Conns {
		c := conns[i]
		if c == nil {
			continue
		}
		n++
		sc, ok := cs.Ctx.(*sockCtx)
		if !ok {
			continue
		}
		old := sc.h
		sc.home, sc.appConn, sc.h = ctx.Proc, h.appConn(sc.app), h.open(c)
		if h.r.OnConnEstablished != nil {
			h.r.OnConnEstablished(h.r, c)
		}
		h.sendConn(ctx, sc.appConn, EvRehomed{NewStack: ctx.Proc, Old: old, New: sc.h})
	}
	if h.r.OnRestored != nil {
		h.r.OnRestored(h.r, n)
	}
}

// drainPending moves buffered OpSend bytes into the engine.
func (h *tcpHost) drainPending(c *tcpeng.Conn, sc *sockCtx) {
	for len(sc.pending) > 0 {
		n := c.Send(sc.pending)
		if n == 0 {
			return
		}
		sc.pending = sc.pending[n:]
	}
	sc.pending = nil
}

// maybeAdvertiseSpace tells a waiting app how much send window is free.
func (h *tcpHost) maybeAdvertiseSpace(c *tcpeng.Conn, sc *sockCtx) {
	if !sc.wantSpace {
		return
	}
	avail := c.SendSpaceFree() - len(sc.pending)
	if avail <= 0 {
		return
	}
	sc.wantSpace = false
	h.sendConn(h.ctx, sc.appConn, NewEvSendSpace(h.s, EvSendSpace{Conn: sc.h, Available: avail}))
}

// sendApp posts an event to an application process.
func (h *tcpHost) sendApp(ctx *sim.Context, app *sim.Proc, ev sim.Message) {
	h.sendConn(ctx, h.appConn(app), ev)
}

// sendConn posts an event on the channel to an application process;
// sockets and listeners keep theirs, so their events look nothing up.
func (h *tcpHost) sendConn(ctx *sim.Context, conn *ipc.Conn, ev sim.Message) {
	ctx.Charge(h.costs.SockEvent)
	conn.Send(ctx, ev)
}

// appConn returns the channel to app, opening it on first use.
func (h *tcpHost) appConn(app *sim.Proc) *ipc.Conn {
	conn, ok := h.appConns[app]
	if !ok {
		conn = ipc.New(app, h.ipcCosts)
		h.appConns[app] = conn
	}
	return conn
}

// ---- tcpeng.Env ----

// Now implements tcpeng.Env.
func (h *tcpHost) Now() sim.Time { return h.s.Now() }

// SendSegment implements tcpeng.Env: serialize (or TSO-describe) and hand
// to the IP layer. seg.Payload is only valid during the call, and a TSO
// descriptor outlives it — it rides to the IP and driver processes by
// reference — so the super-segment gets a pooled buffer of its own, which
// whoever segments it releases.
func (h *tcpHost) SendSegment(c *tcpeng.Conn, seg tcpeng.OutSegment) {
	h.costs.chargeLocked(h.ctx, h.costs.TCPSegOut)
	if seg.TSO && len(seg.Payload) > seg.MSS {
		payload := append(bufpool.Get(len(seg.Payload))[:0], seg.Payload...)
		h.outTSO(h.ctx, ipeng.TSO{TCP: seg.Hdr, Dst: seg.Dst, Payload: payload, MSS: seg.MSS})
		return
	}
	n := seg.Hdr.EncodedLen(len(seg.Payload))
	frame := seg.Hdr.Marshal(bufpool.Get(proto.TxHeadroom + n)[:proto.TxHeadroom], seg.Src, seg.Dst, seg.Payload)
	h.outFrame(h.ctx, seg.Dst, proto.ProtoTCP, frame)
}

// ArmTimer implements tcpeng.Env: (re)arm the connection's intrusive timer
// node on the process running the dispatch. The node doubles as the fire
// message, so arming allocates nothing.
func (h *tcpHost) ArmTimer(c *tcpeng.Conn, k tcpeng.TimerKind, d sim.Time) {
	t := &c.Timers[k]
	h.ctx.Retimer(&t.Timer, d, t)
}

// StopTimer implements tcpeng.Env.
func (h *tcpHost) StopTimer(c *tcpeng.Conn, k tcpeng.TimerKind) {
	c.Timers[k].Stop()
}

// Accepted implements tcpeng.Env.
func (h *tcpHost) Accepted(c *tcpeng.Conn) {
	h.costs.chargeLocked(h.ctx, h.costs.TCPConnSetup)
	lc, ok := c.Listener.Ctx.(*listenCtx)
	if !ok {
		return
	}
	// Accepted connections go straight to the application; the library
	// "accepts" them without a syscall (§3.3).
	c.Listener.Accept()
	sc := &sockCtx{app: lc.app, appConn: lc.appConn, home: lc.home, h: h.open(c), established: true}
	c.Ctx = sc
	if h.r.OnConnEstablished != nil {
		h.r.OnConnEstablished(h.r, c)
	}
	ra, rp := c.RemoteAddr()
	h.sendConn(h.ctx, sc.appConn, NewEvAccepted(h.s, EvAccepted{ListenerReqID: lc.reqID, Conn: sc.h,
		Stack: lc.home, RemoteAddr: ra, RemotePort: rp, SendBuf: c.SendSpaceFree()}))
}

// Connected implements tcpeng.Env.
func (h *tcpHost) Connected(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	sc.established = true
	if h.r.OnConnEstablished != nil {
		h.r.OnConnEstablished(h.r, c)
	}
	h.sendConn(h.ctx, sc.appConn, EvConnected{
		ReqID: sc.reqID, Conn: sc.h, ConnID: c.ID, Stack: sc.home, SendBuf: c.SendSpaceFree(),
	})
}

// DataReadable implements tcpeng.Env: fast-path push of received bytes. The
// chunk Recv hands over travels to the application inside the event.
func (h *tcpHost) DataReadable(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	data := c.Recv(0)
	eof := c.EOF()
	if len(data) == 0 && !eof {
		return
	}
	h.sendConn(h.ctx, sc.appConn, NewEvData(h.s, EvData{Conn: sc.h, Data: data, EOF: eof}))
}

// SendSpace implements tcpeng.Env.
func (h *tcpHost) SendSpace(c *tcpeng.Conn) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	h.drainPending(c, sc)
	h.maybeAdvertiseSpace(c, sc)
}

// ConnClosed implements tcpeng.Env.
func (h *tcpHost) ConnClosed(c *tcpeng.Conn, reset bool) {
	sc, ok := c.Ctx.(*sockCtx)
	if !ok {
		return
	}
	// The application learns here that the connection is gone, and sends
	// nothing for it after its close, so the handle dies with this event: a
	// connection in TIME_WAIT holds no slot.
	h.release(c, sc.h)
	if !sc.established {
		// Active open failed.
		h.sendConn(h.ctx, sc.appConn, EvConnected{ReqID: sc.reqID, Stack: sc.home, Err: c.Err()})
		return
	}
	h.sendConn(h.ctx, sc.appConn, NewEvClosed(h.s, EvClosed{Conn: sc.h, Reset: reset, Err: c.Err()}))
}

// ConnRemoved implements tcpeng.Env.
func (h *tcpHost) ConnRemoved(c *tcpeng.Conn) {
	if sc, ok := c.Ctx.(*sockCtx); ok {
		h.release(c, sc.h)
	}
	if h.r.OnConnRemoved != nil {
		h.r.OnConnRemoved(h.r, c)
	}
}

// RandUint32 implements tcpeng.Env.
func (h *tcpHost) RandUint32() uint32 { return h.s.Rand().Uint32() }
