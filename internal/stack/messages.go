// Package stack assembles the protocol engines (ipeng, tcpeng, udpeng)
// into network stack replicas: isolated, single-threaded processes
// wired together and to the NIC driver by message-passing channels.
//
// Two replica layouts exist, mirroring §3.7 of the paper:
//
//   - single-component: the whole stack runs in one process per replica
//     ("NEaT Nx" configurations);
//   - multi-component: packet filter + IP (+UDP) run in one process and TCP
//     in another, connected by IPC ("Multi Nx" configurations), trading
//     extra cores and messaging for finer fault isolation.
//
// The package also defines the socket wire protocol spoken between
// applications (via socketlib), the SYSCALL server and replicas. The fast
// path — data transfer on established connections — goes app↔replica
// directly; only control-plane calls traverse the SYSCALL server (§3.2).
package stack

import (
	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// ---- Intra-stack messages (between components of one replica) ----
//
// Inbound TCP frames cross the IP→TCP boundary of a multi-component
// replica as bare *proto.Frame messages — the frame is already a pooled
// reference-counted box, so wrapping it would only add a per-segment
// allocation.

// ipOutput carries a headroom TX frame — the transport segment marshalled
// at proto.TxHeadroom — from the TCP process to the IP process, which fills
// the L2/L3 headers in place and transmits without copying the segment.
// Boxes come from the simulator's free list (sim.Pool: the two processes
// share one machine, hence one simulator domain); the IP handler recycles
// each box after consuming it.
type ipOutput struct {
	dst   proto.Addr
	proto proto.IPProto
	frame []byte
	pool  *sim.Pool[ipOutput]
}

// ipOutputTSO carries a TSO super-segment towards the IP process. Pooled
// like ipOutput; payload is the TCP process's own copy (see
// tcpHost.SendSegment) and changes owner with the message.
type ipOutputTSO struct {
	dst     proto.Addr
	hdr     proto.TCPHeader
	payload []byte
	mss     int
	pool    *sim.Pool[ipOutputTSO]
}

var (
	ipOutputPool    = sim.NewPoolKind[ipOutput]("ip_output")
	ipOutputTSOPool = sim.NewPoolKind[ipOutputTSO]("ip_output_tso")
)

func newIPOutput(s *sim.Simulator, dst proto.Addr, p proto.IPProto, frame []byte) *ipOutput {
	pool := ipOutputPool.Of(s)
	m := pool.Get()
	*m = ipOutput{dst: dst, proto: p, frame: frame, pool: pool}
	return m
}

func (m *ipOutput) recycle() {
	pool := m.pool
	*m = ipOutput{}
	pool.Put(m)
}

func newIPOutputTSO(s *sim.Simulator, dst proto.Addr, hdr proto.TCPHeader, payload []byte, mss int) *ipOutputTSO {
	pool := ipOutputTSOPool.Of(s)
	m := pool.Get()
	*m = ipOutputTSO{dst: dst, hdr: hdr, payload: payload, mss: mss, pool: pool}
	return m
}

func (m *ipOutputTSO) recycle() {
	pool := m.pool
	*m = ipOutputTSO{}
	pool.Put(m)
}

// tickMsg runs a deferred closure on the owning process (ARP retries,
// reassembly expiry).
type tickMsg struct{ fn func() }

// ---- Application-facing socket protocol ----
//
// Handles: the application names its own sockets with ReqIDs. Once a
// connection exists, both sides address it by its Handle, a fixed-size
// (host, slot, generation) index the stack hands out with EvAccepted or
// EvConnected, so neither side hashes anything per message.
//
// Boxes: OpSend and the per-connection events (EvAccepted, EvData,
// EvSendSpace, EvClosed) travel only as boxes from the sending simulator's
// free list (see sim.Pool). A box changes owner with the message; the
// receiver calls Recycle once it has dispatched it, which returns the box
// to the list it came from. A box lost on the way (crashed receiver, drop
// fault) is left to the GC.

// Handle names a connection inside the stack that owns it: Host numbers
// the TCP host among its simulator's TCP hosts (a fresh incarnation gets a
// fresh number), Slot indexes that host's connection table and Gen is the
// slot's generation when the connection took it. A handle lives from the
// EvAccepted or EvConnected that names it to the event that tells the
// application the connection closed. A stale handle — its connection
// closed, its slot reused, its host dead — matches nothing, so using one
// is harmless.
type Handle struct{ Host, Slot, Gen uint32 }

// OpListen asks a replica to create a listening subsocket (§3.3). The
// SYSCALL server fans one OpListen out to every replica.
type OpListen struct {
	App     *sim.Proc
	ReqID   uint64
	Port    uint16
	Backlog int
	// ReplyTo, when set, receives the EvListening acknowledgment instead
	// of App (the SYSCALL server aggregates the acks of all replicas).
	ReplyTo *sim.Proc
}

// OpCloseListener closes a listening socket: the SYSCALL server fans it
// out to every replica holding a subsocket and unregisters the listen.
type OpCloseListener struct {
	ReqID uint64 // the original OpListen request
}

// OpConnect asks a replica to open an active connection. LocalPort, when
// nonzero, fixes the local port instead of drawing from the replica's
// ephemeral partition — the caller then controls the 4-tuple (and so the
// flow hash the peer's RSS sees).
type OpConnect struct {
	App       *sim.Proc
	ReqID     uint64
	Addr      proto.Addr
	Port      uint16
	LocalPort uint16
}

// OpSend appends data to a connection's send stream. WantSpace asks the
// stack to reply with EvSendSpace once send-buffer space is available (the
// library sets it when its send credit runs low).
//
// When Data is carved from a payload slab, Ref carries the reference; the
// stack Releases it once the engine's send buffer (or, for bytes the buffer
// had no room for, the socket's pending queue) holds a copy of Data. The
// zero Ref (plain Data ownership) stays valid: Release is then a no-op.
type OpSend struct {
	Conn      Handle
	Data      []byte
	Ref       bufpool.Ref
	WantSpace bool
	pool      *sim.Pool[OpSend]
}

var opSendPool = sim.NewPoolKind[OpSend]("op_send")

// NewOpSend returns a copy of op in a box from s's free list, so the
// per-send fast path (socketlib → replica) allocates nothing in steady
// state. The consuming stack calls Recycle after absorbing Data into the
// connection's send stream.
func NewOpSend(s *sim.Simulator, op OpSend) *OpSend {
	pool := opSendPool.Of(s)
	m := pool.Get()
	*m = op
	m.pool = pool
	return m
}

// Recycle releases Ref and returns the box to its list. The caller must
// have consumed Data; box and Data must not be touched afterwards.
func (m *OpSend) Recycle() {
	m.Ref.Release()
	pool := m.pool
	*m = OpSend{}
	pool.Put(m)
}

// OpClose performs an orderly close of a connection, or resets it when
// Abort is set. It travels only as a box from NewOpClose.
type OpClose struct {
	Conn  Handle
	Abort bool
	pool  *sim.Pool[OpClose]
}

var opClosePool = sim.NewPoolKind[OpClose]("op_close")

// NewOpClose returns a close (or, with abort, a reset) of conn in a box
// from s's free list; the consuming stack recycles it.
func NewOpClose(s *sim.Simulator, conn Handle, abort bool) *OpClose {
	pool := opClosePool.Of(s)
	m := pool.Get()
	*m = OpClose{Conn: conn, Abort: abort, pool: pool}
	return m
}

// Recycle returns the box to its list; it may not be touched afterwards.
func (m *OpClose) Recycle() {
	pool := m.pool
	*m = OpClose{}
	pool.Put(m)
}

// OpUDPBind binds a UDP port.
type OpUDPBind struct {
	App   *sim.Proc
	ReqID uint64
	Port  uint16 // 0 = ephemeral
}

// OpUDPSendTo transmits one datagram.
type OpUDPSendTo struct {
	UDPID uint64
	Addr  proto.Addr
	Port  uint16
	Data  []byte
}

// OpUDPClose releases a UDP binding.
type OpUDPClose struct{ UDPID uint64 }

// OpCheckpoint asks the TCP host to snapshot its state (checkpoint-based
// stateful recovery — the §2.1/§6.6 alternative to NEaT's stateless
// recovery). The snapshot is handed to the manager via the replica's
// OnCheckpoint hook.
type OpCheckpoint struct{}

// OpRestore loads a checkpoint into a freshly respawned TCP host.
type OpRestore struct{ Snap *tcpeng.Snapshot }

// EvRehomed tells an application that a connection now lives in a new
// stack process (its replica was restored from a checkpoint after a
// crash); the socket library re-keys the socket transparently.
type EvRehomed struct {
	NewStack *sim.Proc
	Old, New Handle
}

// EvListening acknowledges OpListen.
type EvListening struct {
	ReqID uint64
	Err   error
}

// EvAccepted announces a new established connection on a listening socket.
// It travels only as a box from NewEvAccepted.
type EvAccepted struct {
	ListenerReqID uint64
	Conn          Handle
	Stack         *sim.Proc
	RemoteAddr    proto.Addr
	RemotePort    uint16
	SendBuf       int // initial send credit
	pool          *sim.Pool[EvAccepted]
}

var evAcceptedPool = sim.NewPoolKind[EvAccepted]("ev_accepted")

// NewEvAccepted returns a copy of ev in a box from s's free list; the
// receiving socket library recycles it once it has dispatched the event.
func NewEvAccepted(s *sim.Simulator, ev EvAccepted) *EvAccepted {
	pool := evAcceptedPool.Of(s)
	m := pool.Get()
	*m = ev
	m.pool = pool
	return m
}

// Recycle returns the box to its list; it may not be touched afterwards.
func (m *EvAccepted) Recycle() {
	pool := m.pool
	*m = EvAccepted{}
	pool.Put(m)
}

// EvConnected resolves OpConnect (Err set on failure).
type EvConnected struct {
	ReqID   uint64
	Conn    Handle
	ConnID  uint64
	Stack   *sim.Proc
	SendBuf int
	Err     error
}

// EvData delivers received bytes (push-mode fast path). EOF marks the
// peer's FIN after all data. It travels only as a box from NewEvData.
type EvData struct {
	Conn Handle
	Data []byte
	EOF  bool
	pool *sim.Pool[EvData]
}

var evDataPool = sim.NewPoolKind[EvData]("ev_data")

// NewEvData returns a copy of ev in a box from s's free list. ev.Data is a
// buffer the sender owns outright — what tcpeng.Conn.Recv handed it — and
// box and buffer change owner with the message: the receiving socket
// library calls Recycle after the application's OnData returned.
func NewEvData(s *sim.Simulator, ev EvData) *EvData {
	pool := evDataPool.Of(s)
	m := pool.Get()
	*m = ev
	m.pool = pool
	return m
}

// Recycle returns Data to the buffer pools and the box to its list; neither
// may be touched afterwards.
func (m *EvData) Recycle() {
	bufpool.Put(m.Data)
	pool := m.pool
	*m = EvData{}
	pool.Put(m)
}

// EvSendSpace advertises the absolute free send window for a connection.
// It travels only as a box from NewEvSendSpace.
type EvSendSpace struct {
	Conn      Handle
	Available int
	pool      *sim.Pool[EvSendSpace]
}

var evSendSpacePool = sim.NewPoolKind[EvSendSpace]("ev_send_space")

// NewEvSendSpace returns a copy of ev in a box from s's free list, owned
// like an EvAccepted box.
func NewEvSendSpace(s *sim.Simulator, ev EvSendSpace) *EvSendSpace {
	pool := evSendSpacePool.Of(s)
	m := pool.Get()
	*m = ev
	m.pool = pool
	return m
}

// Recycle returns the box to its list; it may not be touched afterwards.
func (m *EvSendSpace) Recycle() {
	pool := m.pool
	*m = EvSendSpace{}
	pool.Put(m)
}

// EvClosed reports a connection leaving service. Reset marks aborts
// (including RSTs from the peer). It travels only as a box from
// NewEvClosed.
type EvClosed struct {
	Conn  Handle
	Reset bool
	Err   error
	pool  *sim.Pool[EvClosed]
}

var evClosedPool = sim.NewPoolKind[EvClosed]("ev_closed")

// NewEvClosed returns a copy of ev in a box from s's free list, owned like
// an EvAccepted box.
func NewEvClosed(s *sim.Simulator, ev EvClosed) *EvClosed {
	pool := evClosedPool.Of(s)
	m := pool.Get()
	*m = ev
	m.pool = pool
	return m
}

// Recycle returns the box to its list; it may not be touched afterwards.
func (m *EvClosed) Recycle() {
	pool := m.pool
	*m = EvClosed{}
	pool.Put(m)
}

// EvUDPBound acknowledges OpUDPBind.
type EvUDPBound struct {
	ReqID uint64
	UDPID uint64
	Port  uint16
	Stack *sim.Proc
	Err   error
}

// EvUDPData delivers one received datagram.
type EvUDPData struct {
	Stack   *sim.Proc
	UDPID   uint64
	Src     proto.Addr
	SrcPort uint16
	Data    []byte
}

// ErrNoReplicas is returned when no live replica can serve a request.
var ErrNoReplicas = errNoReplicas{}

type errNoReplicas struct{}

func (errNoReplicas) Error() string { return "stack: no live replicas" }

// ErrReplicaFailure is the error attached to EvClosed when a connection was
// lost because its replica crashed (stateless recovery, §3.6).
var ErrReplicaFailure = errReplicaFailure{}

type errReplicaFailure struct{}

func (errReplicaFailure) Error() string { return "stack: replica failed; connection state lost" }
