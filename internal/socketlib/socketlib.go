// Package socketlib is the user-space socket library of §3.2/§3.3: the
// layer that hides NEaT's replication from applications. It speaks the
// stack package's socket protocol — control-plane calls (listen, connect,
// UDP bind) go to the SYSCALL server, while all data transfer flows
// directly between the application process and the replica owning the
// connection ("mostly system-call-less" sockets).
//
// The library is event-driven like everything else in the simulation: the
// owning application process forwards incoming stack events to
// Lib.HandleEvent and receives completion callbacks. The application never
// learns which replica owns a socket; the library tracks the
// (replica process, connection ID) pair internally, exactly like the
// paper's library translates between socket numbers and communication
// channels.
package socketlib

import (
	"sync/atomic"

	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
)

// reqIDs are globally unique so the SYSCALL server can correlate
// acknowledgments without knowing about applications. The counter is
// atomic because independent simulations may run concurrently (parallel
// experiment sweeps); IDs are pure correlation keys, so which values a
// simulation draws does not influence its behaviour.
var nextReqID atomic.Uint64

func newReqID() uint64 {
	return nextReqID.Add(1)
}

// SendLowWater is the credit level below which Send asks the stack for an
// EvSendSpace notification.
const SendLowWater = 32 << 10

// Lib is one application process's socket library instance.
type Lib struct {
	proc    *sim.Proc
	sysConn *ipc.Conn
	costs   ipc.Costs

	// arena holds the copies plain Send makes of its caller's bytes.
	arena bufpool.Arena

	stackConns map[*sim.Proc]*ipc.Conn
	// socks holds the open sockets by their stack handle,
	// socks[h.Host][h.Slot], so a stack event finds its socket by index.
	socks      [][]*Socket
	connecting map[uint64]*Socket
	listeners  map[uint64]*Listener
	udps       map[connKey]*UDPSocket
	udpBinding map[uint64]*UDPSocket
}

type connKey struct {
	stack *sim.Proc
	id    uint64
}

// New creates a library bound to the application process app, issuing
// control-plane calls to syscallProc.
func New(app *sim.Proc, syscallProc *sim.Proc, costs ipc.Costs) *Lib {
	return &Lib{
		proc:       app,
		sysConn:    ipc.New(syscallProc, costs),
		costs:      costs,
		stackConns: map[*sim.Proc]*ipc.Conn{},
		connecting: map[uint64]*Socket{},
		listeners:  map[uint64]*Listener{},
		udps:       map[connKey]*UDPSocket{},
		udpBinding: map[uint64]*UDPSocket{},
	}
}

func (l *Lib) stackConn(p *sim.Proc) *ipc.Conn {
	c, ok := l.stackConns[p]
	if !ok {
		c = ipc.New(p, l.costs)
		l.stackConns[p] = c
	}
	return c
}

// bind records s, which the stack has just named s.h, in the socket table.
func (l *Lib) bind(s *Socket) {
	s.conn = l.stackConn(s.stack)
	h := s.h
	for int(h.Host) >= len(l.socks) {
		l.socks = append(l.socks, nil)
	}
	for int(h.Slot) >= len(l.socks[h.Host]) {
		l.socks[h.Host] = append(l.socks[h.Host], nil)
	}
	l.socks[h.Host][h.Slot] = s
}

// sock returns the socket h names, or nil if h is stale.
func (l *Lib) sock(h stack.Handle) *Socket {
	if int(h.Host) >= len(l.socks) || int(h.Slot) >= len(l.socks[h.Host]) {
		return nil
	}
	if s := l.socks[h.Host][h.Slot]; s != nil && s.h == h {
		return s
	}
	return nil
}

// unbind removes s from the socket table.
func (l *Lib) unbind(s *Socket) {
	if l.sock(s.h) == s {
		l.socks[s.h.Host][s.h.Slot] = nil
	}
}

// Listener is a listening socket. The replication into per-replica
// subsockets is invisible here: accepted connections simply arrive via
// OnAccept, whatever replica they landed on.
type Listener struct {
	lib   *Lib
	reqID uint64
	Port  uint16

	// OnReady fires once the listen completed on every replica.
	OnReady func(ctx *sim.Context, err error)
	// OnAccept fires per accepted connection.
	OnAccept func(ctx *sim.Context, s *Socket)
}

// Close stops listening: every replica's subsocket is torn down and the
// listen is unregistered from replay.
func (ln *Listener) Close(ctx *sim.Context) {
	if _, ok := ln.lib.listeners[ln.reqID]; !ok {
		return
	}
	delete(ln.lib.listeners, ln.reqID)
	ln.lib.sysConn.Send(ctx, stack.OpCloseListener{ReqID: ln.reqID})
}

// Listen creates a listening socket on port.
func (l *Lib) Listen(ctx *sim.Context, port uint16, backlog int) *Listener {
	ln := &Listener{lib: l, reqID: newReqID(), Port: port}
	l.listeners[ln.reqID] = ln
	l.sysConn.Send(ctx, stack.OpListen{App: l.proc, ReqID: ln.reqID, Port: port, Backlog: backlog})
	return ln
}

// SocketState tracks a socket's lifecycle.
type SocketState int

// Socket states.
const (
	sockConnecting SocketState = iota
	SockOpen
	sockClosed
)

// Socket is a connected (or connecting) TCP socket.
type Socket struct {
	lib    *Lib
	stack  *sim.Proc
	conn   *ipc.Conn    // the channel to stack
	h      stack.Handle // the stack's name for the connection
	state  SocketState
	credit int

	// RemoteAddr/RemotePort are filled for accepted sockets.
	RemoteAddr proto.Addr
	RemotePort uint16

	// Ctx is free application context (e.g. per-connection HTTP state).
	Ctx interface{}

	// OnConnect resolves Connect (nil error on success).
	OnConnect func(ctx *sim.Context, err error)
	// OnData delivers received bytes; eof marks the peer's FIN. data is a
	// pooled buffer the library takes back when OnData returns: a handler
	// that needs the bytes later copies them (passing data to Send is fine,
	// Send copies).
	OnData func(ctx *sim.Context, data []byte, eof bool)
	// OnSendSpace fires when requested send space became available.
	OnSendSpace func(ctx *sim.Context, avail int)
	// OnClosed fires when the connection dies (orderly close completion is
	// silent; this is for resets and replica failures). err distinguishes
	// the causes: stack.ErrReplicaFailure for a crash that lost the
	// connection's state, nil for a peer reset.
	OnClosed func(ctx *sim.Context, reset bool, err error)
}

// Connect opens a TCP connection via the SYSCALL server, which assigns it
// to a random replica (§3.8).
func (l *Lib) Connect(ctx *sim.Context, addr proto.Addr, port uint16) *Socket {
	return l.ConnectFrom(ctx, addr, port, 0)
}

// ConnectFrom is Connect with an explicit local port (0 = ephemeral). By
// fixing the local port the caller fixes the connection's 4-tuple and so
// the flow hash the server's RSS computes — the adversarial campaigns use
// this to aim traffic at a chosen replica.
func (l *Lib) ConnectFrom(ctx *sim.Context, addr proto.Addr, port, localPort uint16) *Socket {
	s := &Socket{lib: l, state: sockConnecting}
	reqID := newReqID()
	l.connecting[reqID] = s
	l.sysConn.Send(ctx, stack.OpConnect{App: l.proc, ReqID: reqID, Addr: addr, Port: port,
		LocalPort: localPort})
	return s
}

// State returns the socket lifecycle state.
func (s *Socket) State() SocketState { return s.state }

// Credit returns the known free send-buffer space.
func (s *Socket) Credit() int { return s.credit }

// Send streams data on the socket (fast path: directly to the owning
// replica). It returns false if the socket is not open. data is copied into
// a library-owned slab before Send returns — so the caller may reuse it at
// once, and may pass the slice OnData lent it — and continues as SendRef.
// When the tracked credit falls below SendLowWater the stack is asked to
// notify via OnSendSpace; large transfers should chunk on that signal.
func (s *Socket) Send(ctx *sim.Context, data []byte) bool {
	if s.state != SockOpen {
		return false
	}
	return s.SendRef(ctx, s.lib.arena.AllocCopy(data))
}

// SendRef streams slab-carved data on the socket. Ownership of the Ref
// transfers to the stack, which releases it after absorbing the bytes into
// the connection's send stream; if the socket is not open the Ref is
// released here and false is returned. Applications that batch payloads in
// a bufpool.Arena use this to avoid a fresh []byte allocation per send.
func (s *Socket) SendRef(ctx *sim.Context, ref bufpool.Ref) bool {
	if s.state != SockOpen {
		ref.Release()
		return false
	}
	s.credit -= len(ref.B)
	want := s.credit < SendLowWater
	s.conn.Send(ctx, stack.NewOpSend(ctx.Sim, stack.OpSend{Conn: s.h, Data: ref.B, Ref: ref, WantSpace: want}))
	return true
}

// Close performs an orderly close.
func (s *Socket) Close(ctx *sim.Context) {
	if s.state != SockOpen {
		return
	}
	s.state = sockClosed
	s.conn.Send(ctx, stack.NewOpClose(ctx.Sim, s.h, false))
}

// Abort resets the connection.
func (s *Socket) Abort(ctx *sim.Context) {
	if s.state != SockOpen {
		return
	}
	s.state = sockClosed
	s.conn.Send(ctx, stack.NewOpClose(ctx.Sim, s.h, true))
}

// UDPSocket is a bound UDP socket.
type UDPSocket struct {
	lib   *Lib
	stack *sim.Proc
	udpID uint64
	Port  uint16

	// OnReady resolves BindUDP.
	OnReady func(ctx *sim.Context, err error)
	// OnData delivers received datagrams.
	OnData func(ctx *sim.Context, src proto.Addr, srcPort uint16, data []byte)
}

// BindUDP binds a UDP port (0 = ephemeral) on a replica chosen by the
// SYSCALL server.
func (l *Lib) BindUDP(ctx *sim.Context, port uint16) *UDPSocket {
	u := &UDPSocket{lib: l}
	reqID := newReqID()
	l.udpBinding[reqID] = u
	l.sysConn.Send(ctx, stack.OpUDPBind{App: l.proc, ReqID: reqID, Port: port})
	return u
}

// SendTo transmits one datagram.
func (u *UDPSocket) SendTo(ctx *sim.Context, addr proto.Addr, port uint16, data []byte) {
	if u.stack == nil {
		return
	}
	u.lib.stackConn(u.stack).Send(ctx, stack.OpUDPSendTo{UDPID: u.udpID, Addr: addr, Port: port, Data: data})
}

// Close releases the binding.
func (u *UDPSocket) Close(ctx *sim.Context) {
	if u.stack == nil {
		return
	}
	u.lib.stackConn(u.stack).Send(ctx, stack.OpUDPClose{UDPID: u.udpID})
	delete(u.lib.udps, connKey{u.stack, u.udpID})
	u.stack = nil
}

// HandleEvent dispatches a stack event to the owning socket; it reports
// whether msg was a socket event (applications pass every message through
// and handle the rest themselves).
func (l *Lib) HandleEvent(ctx *sim.Context, msg sim.Message) bool {
	switch m := msg.(type) {
	case stack.EvListening:
		ln, ok := l.listeners[m.ReqID]
		if ok && ln.OnReady != nil {
			ln.OnReady(ctx, m.Err)
		}
		return true
	case *stack.EvAccepted:
		// A connection whose listener is gone is refused silently (it will be
		// reset when the app never writes; a real library would abort here).
		if ln, ok := l.listeners[m.ListenerReqID]; ok {
			s := &Socket{lib: l, stack: m.Stack, h: m.Conn, state: SockOpen,
				credit: m.SendBuf, RemoteAddr: m.RemoteAddr, RemotePort: m.RemotePort}
			l.bind(s)
			if ln.OnAccept != nil {
				ln.OnAccept(ctx, s)
			}
		}
		m.Recycle()
		return true
	case stack.EvConnected:
		s, ok := l.connecting[m.ReqID]
		if !ok {
			return true
		}
		delete(l.connecting, m.ReqID)
		if m.Err != nil {
			s.state = sockClosed
			if s.OnConnect != nil {
				s.OnConnect(ctx, m.Err)
			}
			return true
		}
		s.stack = m.Stack
		s.h = m.Conn
		s.credit = m.SendBuf
		s.state = SockOpen
		l.bind(s)
		if s.OnConnect != nil {
			s.OnConnect(ctx, nil)
		}
		return true
	case *stack.EvData:
		if s := l.sock(m.Conn); s != nil && s.OnData != nil {
			s.OnData(ctx, m.Data, m.EOF)
		}
		m.Recycle() // the chunk and the box go back to their pools
		return true
	case *stack.EvSendSpace:
		if s := l.sock(m.Conn); s != nil {
			s.credit = m.Available
			if s.OnSendSpace != nil {
				s.OnSendSpace(ctx, m.Available)
			}
		}
		m.Recycle()
		return true
	case *stack.EvClosed:
		if s := l.sock(m.Conn); s != nil {
			l.unbind(s)
			wasOpen := s.state == SockOpen
			s.state = sockClosed
			if s.OnClosed != nil && (wasOpen || m.Reset) {
				s.OnClosed(ctx, m.Reset, m.Err)
			}
		}
		m.Recycle()
		return true
	case stack.EvUDPBound:
		u, ok := l.udpBinding[m.ReqID]
		if !ok {
			return true
		}
		delete(l.udpBinding, m.ReqID)
		if m.Err == nil {
			u.stack = m.Stack
			u.udpID = m.UDPID
			u.Port = m.Port
			l.udps[connKey{m.Stack, m.UDPID}] = u
		}
		if u.OnReady != nil {
			u.OnReady(ctx, m.Err)
		}
		return true
	case stack.EvRehomed:
		// The connection's replica was restored from a checkpoint into a
		// new process: re-key the socket so the fast path follows it.
		s := l.sock(m.Old)
		if s == nil {
			return true
		}
		l.unbind(s)
		s.stack, s.h = m.NewStack, m.New
		l.bind(s)
		return true
	case stack.EvUDPData:
		u, ok := l.udps[connKey{m.Stack, m.UDPID}]
		if ok && u.OnData != nil {
			u.OnData(ctx, m.Src, m.SrcPort, m.Data)
		}
		return true
	}
	return false
}
