// Package stack assembles the protocol engines (pfilter, ipeng, tcpeng,
// udpeng) into network stack replicas: isolated, single-threaded processes
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
	"sync"

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
// Boxes are pooled (sync.Pool: parallel sweeps run many simulators); the IP
// handler returns each box after consuming it.
type ipOutput struct {
	dst   proto.Addr
	proto proto.IPProto
	frame []byte
}

// ipOutputTSO carries a TSO super-segment towards the IP process. Pooled
// like ipOutput; payload is the TCP process's own copy (see
// tcpHost.SendSegment) and changes owner with the message.
type ipOutputTSO struct {
	dst     proto.Addr
	hdr     proto.TCPHeader
	payload []byte
	mss     int
}

var (
	ipOutputPool    = sync.Pool{New: func() any { return new(ipOutput) }}
	ipOutputTSOPool = sync.Pool{New: func() any { return new(ipOutputTSO) }}
)

func newIPOutput(dst proto.Addr, p proto.IPProto, frame []byte) *ipOutput {
	m := ipOutputPool.Get().(*ipOutput)
	m.dst, m.proto, m.frame = dst, p, frame
	return m
}

func newIPOutputTSO(dst proto.Addr, hdr proto.TCPHeader, payload []byte, mss int) *ipOutputTSO {
	m := ipOutputTSOPool.Get().(*ipOutputTSO)
	m.dst, m.hdr, m.payload, m.mss = dst, hdr, payload, mss
	return m
}

// tickMsg runs a deferred closure on the owning process (ARP retries,
// reassembly expiry).
type tickMsg struct{ fn func() }

// ---- Application-facing socket protocol ----
//
// Handles: the application names its own sockets with ReqIDs; the stack
// names live connections with ConnIDs (unique per replica process). The
// pair (replica process, ConnID) is the canonical socket handle after
// establishment.

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
	App   *sim.Proc
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
	ConnID    uint64
	Data      []byte
	Ref       bufpool.Ref
	WantSpace bool
}

// opSendPool recycles *OpSend boxes so the per-send fast path (socketlib →
// replica) allocates nothing in steady state.
var opSendPool = sync.Pool{New: func() any { return new(OpSend) }}

// NewOpSend returns a pooled OpSend box. Ownership transfers with the
// message; the consuming stack calls Recycle after absorbing Data into the
// connection's send stream.
func NewOpSend(connID uint64, data []byte, ref bufpool.Ref, wantSpace bool) *OpSend {
	m := opSendPool.Get().(*OpSend)
	m.ConnID, m.Data, m.Ref, m.WantSpace = connID, data, ref, wantSpace
	return m
}

// Recycle releases Ref and returns the box to the pool. The caller must
// have consumed Data; box and Data must not be touched afterwards.
func (m *OpSend) Recycle() {
	m.Ref.Release()
	*m = OpSend{}
	opSendPool.Put(m)
}

// OpClose performs an orderly close of a connection.
type OpClose struct{ ConnID uint64 }

// OpAbort resets a connection.
type OpAbort struct{ ConnID uint64 }

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
	OldStack *sim.Proc
	NewStack *sim.Proc
	ConnID   uint64
}

// EvListening acknowledges OpListen.
type EvListening struct {
	ReqID uint64
	Stack *sim.Proc // the replica process owning the subsocket
	Err   error
}

// EvAccepted announces a new established connection on a listening socket.
// It travels only as the pooled box NewEvAccepted returns.
type EvAccepted struct {
	ListenerReqID uint64
	ConnID        uint64
	Stack         *sim.Proc
	RemoteAddr    proto.Addr
	RemotePort    uint16
	SendBuf       int // initial send credit
}

var evAcceptedPool = sync.Pool{New: func() any { return new(EvAccepted) }}

// NewEvAccepted returns a pooled EvAccepted box. The box changes owner with
// the message: the receiving socket library calls Recycle once it has
// dispatched the event. A box lost on the way is left to the GC.
func NewEvAccepted(listenerReqID, connID uint64, stack *sim.Proc, remoteAddr proto.Addr,
	remotePort uint16, sendBuf int) *EvAccepted {
	m := evAcceptedPool.Get().(*EvAccepted)
	*m = EvAccepted{ListenerReqID: listenerReqID, ConnID: connID, Stack: stack,
		RemoteAddr: remoteAddr, RemotePort: remotePort, SendBuf: sendBuf}
	return m
}

// Recycle returns the box to its pool; it may not be touched afterwards.
func (m *EvAccepted) Recycle() {
	*m = EvAccepted{}
	evAcceptedPool.Put(m)
}

// EvConnected resolves OpConnect (Err set on failure).
type EvConnected struct {
	ReqID   uint64
	ConnID  uint64
	Stack   *sim.Proc
	SendBuf int
	Err     error
}

// EvData delivers received bytes (push-mode fast path). EOF marks the
// peer's FIN after all data. It travels only as the pooled box NewEvData
// returns.
type EvData struct {
	Stack  *sim.Proc
	ConnID uint64
	Data   []byte
	EOF    bool
}

var evDataPool = sync.Pool{New: func() any { return new(EvData) }}

// NewEvData returns a pooled EvData box. data is a buffer the sender owns
// outright — what tcpeng.Conn.Recv handed it — and box and buffer change
// owner with the message: the receiving socket library calls Recycle after
// the application's OnData returned. A message lost on the way (crashed
// receiver, drop fault) leaves both to the GC.
func NewEvData(stack *sim.Proc, connID uint64, data []byte, eof bool) *EvData {
	m := evDataPool.Get().(*EvData)
	m.Stack, m.ConnID, m.Data, m.EOF = stack, connID, data, eof
	return m
}

// Recycle returns Data to the buffer pools and the box to its pool; neither
// may be touched afterwards.
func (m *EvData) Recycle() {
	bufpool.Put(m.Data)
	*m = EvData{}
	evDataPool.Put(m)
}

// EvSendSpace advertises the absolute free send window for a connection.
type EvSendSpace struct {
	Stack     *sim.Proc
	ConnID    uint64
	Available int
}

// EvClosed reports a connection leaving service. Reset marks aborts
// (including RSTs from the peer). It travels only as the pooled box
// NewEvClosed returns.
type EvClosed struct {
	Stack  *sim.Proc
	ConnID uint64
	Reset  bool
	Err    error
}

var evClosedPool = sync.Pool{New: func() any { return new(EvClosed) }}

// NewEvClosed returns a pooled EvClosed box, owned like an EvAccepted box:
// the receiving socket library recycles it after dispatch.
func NewEvClosed(stack *sim.Proc, connID uint64, reset bool, err error) *EvClosed {
	m := evClosedPool.Get().(*EvClosed)
	m.Stack, m.ConnID, m.Reset, m.Err = stack, connID, reset, err
	return m
}

// Recycle returns the box to its pool; it may not be touched afterwards.
func (m *EvClosed) Recycle() {
	*m = EvClosed{}
	evClosedPool.Put(m)
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

// ErrReplicaRetired is the error attached to EvClosed when a connection
// was forcibly closed because its replica's scale-down drain outlived the
// configured drain deadline (graceful drain, §3.4 extension).
var ErrReplicaRetired = errReplicaRetired{}

type errReplicaRetired struct{}

func (errReplicaRetired) Error() string {
	return "stack: replica retired; drain deadline cut the connection short"
}
