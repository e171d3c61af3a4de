// Package tcpeng implements the TCP protocol engine used by every stack in
// this repository: NEaT's single-component replicas, the TCP processes of
// multi-component replicas (§3.7), the load generator's client stack, and
// the monolithic Linux-model baseline.
//
// The engine is pure protocol: it owns protocol control blocks, the RFC 793
// state machine, retransmission with RFC 6298 timing, Reno congestion
// control (slow start, congestion avoidance, fast retransmit/recovery),
// delayed ACKs, zero-window probing and TIME_WAIT. Everything outside the
// protocol — time, timers, segment transmission, upcalls to sockets — is
// reached through the Env interface, so the engine runs identically inside
// a simulated process or a plain unit test.
//
// This is deliberately the paper's most state-heavy component: when a NEaT
// replica crashes, exactly the state held here is lost (§3.6), which is why
// the fault-injection experiment of Table 3 distinguishes TCP faults from
// faults in the stateless components.
package tcpeng

import (
	"errors"
	"fmt"

	"neat/internal/proto"
	"neat/internal/sim"
)

// State is a TCP connection state (RFC 793).
type State uint8

// TCP states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"Closed", "SynSent", "SynRcvd", "Established", "FinWait1",
	"FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// TimerKind identifies one of a connection's timers.
type TimerKind int

// Connection timers.
const (
	TimerRexmit TimerKind = iota
	TimerPersist
	TimerDelAck
	TimerTimeWait
	TimerGuard
	NumTimers
)

// ConnTimer is the intrusive timer node embedded in a Conn, one per
// TimerKind. It owns a reusable simulator timer and identifies itself, so
// the Env can arm it with `Retimer(&t.Timer, d, t)` — the node is its own
// fire message and the arm/stop path allocates nothing. The embedded
// sim.Timer generation survives PCB recycling, which is what keeps a fire
// from a previous incarnation of a pooled Conn stale.
type ConnTimer struct {
	sim.Timer
	C    *Conn
	Kind TimerKind
}

// OutSegment is a TCP segment handed to the IP layer for transmission.
// When TSO is set the payload may exceed MSS and the NIC performs the
// segmentation (§4); MSS tells the NIC where to cut.
type OutSegment struct {
	Src, Dst proto.Addr
	Hdr      proto.TCPHeader
	Payload  []byte
	TSO      bool
	MSS      int
}

// Env is the world as seen by the engine. The stack component that embeds
// the engine implements it: timers map to simulator timers, SendSegment
// feeds the IP layer, and the upcalls become socket events.
type Env interface {
	// Now returns the current time.
	Now() sim.Time
	// SendSegment transmits one segment (or TSO super-segment). seg.Payload
	// is a view into the connection's send buffer and is valid until the
	// call returns; an Env that needs the bytes later copies them.
	SendSegment(c *Conn, seg OutSegment)
	// ArmTimer (re)schedules timer k of c to fire after d; StopTimer
	// cancels it. The owner must call Engine.OnTimer when it fires.
	ArmTimer(c *Conn, k TimerKind, d sim.Time)
	StopTimer(c *Conn, k TimerKind)
	// Accepted reports a connection that completed the passive handshake
	// and joined its listener's accept queue.
	Accepted(c *Conn)
	// Connected reports completion of an active (client) handshake.
	Connected(c *Conn)
	// DataReadable reports new in-order data in the receive buffer.
	DataReadable(c *Conn)
	// SendSpace reports freed send-buffer space after ACKs.
	SendSpace(c *Conn)
	// ConnClosed reports the connection leaving app-visible life (FIN
	// completion or RST); reset is true for aborts.
	ConnClosed(c *Conn, reset bool)
	// ConnRemoved reports the PCB being deleted from the engine (after
	// TIME_WAIT, or immediately on RST). NEaT's manager hooks this to
	// uninstall NIC filters and drive lazy termination (§3.4).
	ConnRemoved(c *Conn)
	// RandUint32 supplies initial sequence number entropy.
	RandUint32() uint32
}

// Config parameterizes an engine. Small segments are never held back
// (no Nagle: the paper's HTTP workload runs with TCP_NODELAY).
type Config struct {
	SendBuf int  // send buffer bytes (default 256 KiB)
	TSO     bool // hand payloads of up to tsoMax bytes to the NIC

	// EphemeralLo/Hi bound the local port range for active opens. NEaT
	// partitions the ephemeral space across replicas so that two replicas
	// sharing the host IP can never allocate colliding 4-tuples — the
	// port-space analogue of the paper's state partitioning. Defaults:
	// 32768..65535.
	EphemeralLo, EphemeralHi uint16

	// Guard configures the per-replica resource guards against hostile
	// peers. The zero value disables every guard, preserving historical
	// behaviour exactly.
	Guard GuardConfig

	// recvBuf is the receive buffer in bytes (default 256 KiB); the flow
	// control tests shrink it.
	recvBuf int
}

// GuardConfig bounds the resources a remote peer can pin inside one
// replica. Each guard is independent and disabled at its zero value, so a
// replica without guards behaves exactly as before; a replica with guards
// degrades a hostile source deterministically instead of letting it starve
// the partition.
type GuardConfig struct {
	// SynBacklog caps embryonic (SYN_RCVD) connections per listener. When
	// a SYN arrives at a full guard backlog the OLDEST embryonic
	// connection is shed (silently — its source is likely spoofed) to
	// admit the new one, so a SYN flood recycles its own slots instead of
	// wedging the listener. 0 disables (the plain listener backlog then
	// drops the newest SYN, the historical behaviour).
	SynBacklog int
	// HeaderDeadline reaps an accepted server-side connection that has
	// delivered fewer than HeaderMinBytes payload bytes this long after
	// establishment — the slowloris (byte-at-a-time header) defense. A
	// cumulative byte floor, not a progress check: trickling one byte per
	// tick does not help the attacker. 0 disables.
	HeaderDeadline sim.Time
	// HeaderMinBytes is the cumulative payload floor for HeaderDeadline
	// (default 64 when a deadline is set).
	HeaderMinBytes int
	// IdleDeadline reaps a server-side connection with no inbound
	// activity (no segment at all, ACKs included) for this long. 0
	// disables.
	IdleDeadline sim.Time
	// SynCookies switches a listener to stateless SYN-cookie handshakes
	// once its embryonic count reaches SynCookieWatermark: the SYN|ACK's
	// ISN encodes a verifiable cookie, no PCB is created, and the
	// connection materializes (directly ESTABLISHED) only when the
	// completing ACK validates. A SYN flood above the watermark therefore
	// never touches the PCB table. Cookie connections lose window scaling
	// and quantize the MSS, exactly like real stacks.
	SynCookies bool
	// SynCookieWatermark is the embryonic count at which cookies engage
	// (default: SynBacklog when set, else 64). Negative values force
	// cookies for every SYN (full handshake offload).
	SynCookieWatermark int
}

// Validate reports the first out-of-range guard. The message starts at the
// field name so callers can prefix the path their user wrote it under.
// (A negative SynCookieWatermark is meaningful — cookies for every SYN —
// so the cookie fields have no invalid value.)
func (g GuardConfig) Validate() error {
	if g.SynBacklog < 0 {
		return fmt.Errorf("SynBacklog is %d; want 0 (guard off) or a positive half-open cap", g.SynBacklog)
	}
	if g.HeaderDeadline < 0 {
		return fmt.Errorf("HeaderDeadline is %v; want 0 (guard off) or a positive deadline", g.HeaderDeadline)
	}
	if g.HeaderMinBytes < 0 {
		return fmt.Errorf("HeaderMinBytes is %d; want 0 (default 64) or a positive byte floor", g.HeaderMinBytes)
	}
	if g.HeaderMinBytes > 0 && g.HeaderDeadline == 0 {
		return fmt.Errorf("HeaderMinBytes is %d but HeaderDeadline is 0; the byte floor only applies with a deadline set", g.HeaderMinBytes)
	}
	if g.IdleDeadline < 0 {
		return fmt.Errorf("IdleDeadline is %v; want 0 (guard off) or a positive deadline", g.IdleDeadline)
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.recvBuf == 0 {
		c.recvBuf = 256 << 10
	}
	if c.SendBuf == 0 {
		c.SendBuf = 256 << 10
	}
	if c.EphemeralLo == 0 {
		c.EphemeralLo = 32768
	}
	if c.EphemeralHi == 0 {
		c.EphemeralHi = 65535
	}
	if c.Guard.HeaderDeadline != 0 && c.Guard.HeaderMinBytes == 0 {
		c.Guard.HeaderMinBytes = 64
	}
	if c.Guard.SynCookies && c.Guard.SynCookieWatermark == 0 {
		if c.Guard.SynBacklog > 0 {
			c.Guard.SynCookieWatermark = c.Guard.SynBacklog
		} else {
			c.Guard.SynCookieWatermark = 64
		}
	}
}

// DefaultConfig returns the default engine configuration.
func DefaultConfig() Config {
	var c Config
	c.fillDefaults()
	return c
}

// Protocol timers, limits and the initial window. The RTO bounds are
// LAN-scaled (Linux's minimum RTO is 200 ms).
const (
	initialRTO      = 50 * sim.Millisecond
	minRTO          = 5 * sim.Millisecond
	maxRTO          = 2 * sim.Second
	maxRetries      = 10                    // RTOs in a row before the peer is dead (tcp_retries2)
	timeWait        = 250 * sim.Millisecond // 2*MSL stand-in
	delAckDelay     = sim.Millisecond
	persistInterval = 100 * sim.Millisecond // zero-window probe interval
	ourMSS          = 1460                  // the MSS this engine offers
	initialCwndMSS  = 10                    // initial congestion window in MSS
	tsoMax          = 64 << 10              // largest TSO super-segment
)

// Engine errors.
var (
	ErrPortInUse    = errors.New("tcpeng: address already in use")
	ErrNoPorts      = errors.New("tcpeng: ephemeral ports exhausted")
	ErrConnClosed   = errors.New("tcpeng: connection closed")
	ErrNotListening = errors.New("tcpeng: not a listening socket")
	ErrReset        = errors.New("tcpeng: connection reset by peer")
)

// connKey identifies an established connection.
type connKey struct {
	localAddr  proto.Addr
	localPort  uint16
	remoteAddr proto.Addr
	remotePort uint16
}

// listenKey identifies a listener; a zero Addr listens on all local
// addresses.
type listenKey struct {
	addr proto.Addr
	port uint16
}

// Stats counts engine-wide events.
type Stats struct {
	SegsIn, SegsOut      uint64
	DataBytesIn          uint64
	DataBytesOut         uint64
	Retransmits          uint64
	FastRetransmits      uint64
	OutOfOrderIn         uint64
	ResetsIn, ResetsOut  uint64
	AcceptedConns        uint64
	DroppedSynBacklog    uint64
	TimeWaitReaped       uint64
	RetriesExceeded      uint64
	PersistProbes        uint64
	DelayedAcksSent      uint64
	ZeroWindowAdvertised uint64
	SpuriousTimerFirings uint64

	// Resource-guard activity (always zero with Config.Guard disabled).
	SynShed         uint64 // oldest embryonic conns shed to admit new SYNs
	SlowlorisReaped uint64 // conns reaped by header-progress or idle deadline

	// SYN-cookie activity (always zero with Guard.SynCookies off).
	SynCookiesSent      uint64 // stateless SYN|ACKs minted above the watermark
	SynCookiesValidated uint64 // ACKs whose cookie verified (PCB materialized)
	SynCookiesRejected  uint64 // ACKs whose cookie failed validation
}

// Engine is one TCP instance: the per-replica partition of TCP state.
type Engine struct {
	env  Env
	cfg  Config
	addr proto.Addr // our IP address

	conns     map[connKey]*Conn
	listeners map[listenKey]*Listener
	nextEphem uint16
	nextID    uint64

	// PCB pool: removed connections park their compact structs on connFree
	// and their buffer blocks on bufsFree; newConn recycles them, so conn
	// churn at steady state allocates nothing. Timer generations inside the
	// recycled structs keep increasing across incarnations (see ConnTimer).
	connFree   []*Conn
	bufsFree   []*connBufs
	poolReused uint64

	// SYN-cookie secret, drawn lazily from the Env RNG on first use so
	// engines that never mint a cookie consume an identical RNG stream.
	cookieSecret    uint32
	cookieSecretSet bool

	stats Stats
}

// NewEngine creates an engine bound to the local address addr.
func NewEngine(env Env, addr proto.Addr, cfg Config) *Engine {
	cfg.fillDefaults()
	return &Engine{
		env:       env,
		cfg:       cfg,
		addr:      addr,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[listenKey]*Listener),
		nextEphem: cfg.EphemeralLo,
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// NumConns returns the number of live PCBs (any state incl. TIME_WAIT).
// NEaT's lazy termination (§3.4) garbage-collects a terminating replica
// when this reaches zero.
func (e *Engine) NumConns() int { return len(e.conns) }

// NumEstablished returns connections in app-usable states.
func (e *Engine) NumEstablished() int {
	n := 0
	for _, c := range e.conns {
		if c.state == StateEstablished || c.state == StateCloseWait {
			n++
		}
	}
	return n
}

// Listener is a listening socket (one replica's "subsocket" of a NEaT
// listening socket, §3.3).
type Listener struct {
	engine  *Engine
	key     listenKey
	backlog int
	// acceptQ holds established, not-yet-accepted connections.
	acceptQ []*Conn
	// embryonic counts connections still in SYN_RCVD. embQ[embHead:] holds
	// them in arrival order for the guard's oldest-first shedding, among
	// stale entries of connections that have since left SYN_RCVD: a
	// connection leaving only decrements the count, and the queue is
	// compacted once its stale entries outnumber the live ones. So every
	// operation is amortized O(1) — a storm of completing handshakes stays
	// linear — and the order costs no bytes in the PCB.
	embryonic int
	embQ      []embEntry
	embHead   int
	closed    bool
	// Ctx is opaque owner context (the stack stores socket bookkeeping).
	Ctx interface{}
}

// Listen creates a listener on addr:port. A zero addr listens on the
// engine's address (wildcard).
func (e *Engine) Listen(addr proto.Addr, port uint16, backlog int) (*Listener, error) {
	k := listenKey{addr: addr, port: port}
	if _, dup := e.listeners[k]; dup {
		return nil, ErrPortInUse
	}
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{engine: e, key: k, backlog: backlog}
	e.listeners[k] = l
	return l, nil
}

// Accept pops an established connection from the accept queue, or nil. The
// rest of the queue moves down inside its own array, so a host that accepts
// each connection as it arrives appends into one array forever.
func (l *Listener) Accept() *Conn {
	if len(l.acceptQ) == 0 {
		return nil
	}
	c := l.acceptQ[0]
	l.unqueue(0)
	return c
}

// unqueue removes entry i of the accept queue in place and clears the slot
// it vacates, so the array holds no stale PCB pointer.
func (l *Listener) unqueue(i int) {
	q := l.acceptQ
	n := i + copy(q[i:], q[i+1:])
	q[n] = nil
	l.acceptQ = q[:n]
}

// Close stops accepting; queued connections are reset. The queue is detached
// first: each Abort would otherwise unqueue its connection from under the
// loop and skip the next one.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.engine.listeners, l.key)
	q := l.acceptQ
	l.acceptQ = nil
	for _, c := range q {
		c.Abort()
	}
}

// lookupListener finds a listener for the destination of a SYN.
func (e *Engine) lookupListener(addr proto.Addr, port uint16) *Listener {
	if l, ok := e.listeners[listenKey{addr: addr, port: port}]; ok {
		return l
	}
	if l, ok := e.listeners[listenKey{port: port}]; ok {
		return l
	}
	return nil
}

// allocEphemeral picks a free local port for an active open to remote,
// cycling through the engine's partition of the ephemeral range.
func (e *Engine) allocEphemeral(remoteAddr proto.Addr, remotePort uint16) (uint16, error) {
	lo, hi := e.cfg.EphemeralLo, e.cfg.EphemeralHi
	span := int(hi) - int(lo) + 1
	for tries := 0; tries < span; tries++ {
		p := e.nextEphem
		if p < lo || p > hi {
			p = lo
		}
		if p == hi {
			e.nextEphem = lo
		} else {
			e.nextEphem = p + 1
		}
		k := connKey{localAddr: e.addr, localPort: p, remoteAddr: remoteAddr, remotePort: remotePort}
		if _, used := e.conns[k]; !used {
			return p, nil
		}
	}
	return 0, ErrNoPorts
}

// Connect starts an active open to remote:port and returns the new
// connection in SynSent state; Env.Connected fires on completion.
func (e *Engine) Connect(remote proto.Addr, port uint16) (*Conn, error) {
	return e.ConnectFrom(remote, port, 0)
}

// ConnectFrom is Connect with an explicit local port (0 allocates from the
// ephemeral range). A fixed local port pins the connection's 4-tuple — and
// therefore its flow hash, and therefore the serving replica under hash
// RSS — which the adversarial campaigns use to aim traffic.
func (e *Engine) ConnectFrom(remote proto.Addr, port, localPort uint16) (*Conn, error) {
	lp := localPort
	if lp == 0 {
		var err error
		lp, err = e.allocEphemeral(remote, port)
		if err != nil {
			return nil, err
		}
	} else if _, used := e.conns[connKey{localAddr: e.addr, localPort: lp,
		remoteAddr: remote, remotePort: port}]; used {
		return nil, ErrPortInUse
	}
	c := e.newConn(connKey{localAddr: e.addr, localPort: lp, remoteAddr: remote, remotePort: port})
	c.state = StateSynSent
	c.iss = e.env.RandUint32()
	c.snd.una = c.iss
	c.snd.nxt = c.iss + 1
	c.rto = initialRTO
	c.sendFlags(proto.TCPSyn, c.iss, 0, true)
	e.env.ArmTimer(c, TimerRexmit, c.rto)
	return c, nil
}

// newConn allocates (or recycles) a PCB and registers it.
func (e *Engine) newConn(k connKey) *Conn {
	e.nextID++
	var c *Conn
	if n := len(e.connFree); n > 0 {
		c = e.connFree[n-1]
		e.connFree[n-1] = nil
		e.connFree = e.connFree[:n-1]
		e.poolReused++
		// Full field reset, preserving the timer nodes: their sim.Timer
		// generations must keep increasing across incarnations so that a
		// fire popped for the previous owner but not yet dispatched stays
		// stale. A node still armed would be worse — a wheel entry of the
		// previous owner firing into this connection — and remove stopped
		// all of them, so finding one is an engine bug.
		timers := c.Timers
		for i := range timers {
			if timers[i].Armed() {
				panic("tcpeng: recycled PCB holds an armed timer")
			}
		}
		*c = Conn{Timers: timers}
	} else {
		c = &Conn{}
	}
	c.engine = e
	c.ID = e.nextID
	c.key = k
	c.mss = ourMSS
	for i := range c.Timers {
		c.Timers[i].C = c
		c.Timers[i].Kind = TimerKind(i)
	}
	c.rcv.wndShift, c.snd.wndShift = windowShift(e.cfg.recvBuf), 0
	c.snd.cwnd = initialCwndMSS * ourMSS
	c.snd.ssthresh = 0xffffffff
	e.conns[k] = c
	return c
}

// windowShift returns the window-scale shift needed to advertise buf bytes.
func windowShift(buf int) uint8 {
	var s uint8
	for buf>>s > 0xffff && s < 14 {
		s++
	}
	return s
}

// remove deletes a PCB, fires ConnRemoved and recycles the struct.
func (e *Engine) remove(c *Conn) {
	if c.removed {
		return
	}
	c.removed = true
	for k := TimerKind(0); k < NumTimers; k++ {
		e.env.StopTimer(c, k)
	}
	delete(e.conns, c.key)
	e.env.ConnRemoved(c)
	// Recycle after the upcall: the env reads c.ID/addresses synchronously.
	// Stopping the timers above took every node out of the timer wheel and
	// bumped its generation, so a fire already popped stays stale no matter
	// who reuses the struct.
	c.releaseBufs()
	e.connFree = append(e.connFree, c)
}

// releaseBufs detaches the connection's buffer block, if any, and parks it
// on the engine's free list.
func (c *Conn) releaseBufs() {
	if b := c.bufs; b != nil {
		c.bufs = nil
		b.recycle()
		c.engine.bufsFree = append(c.engine.bufsFree, b)
	}
}

// getBufs takes a buffer block from the free list or allocates one.
func (e *Engine) getBufs() *connBufs {
	if n := len(e.bufsFree); n > 0 {
		b := e.bufsFree[n-1]
		e.bufsFree[n-1] = nil
		e.bufsFree = e.bufsFree[:n-1]
		return b
	}
	return &connBufs{}
}

// PoolStats reports PCB pool occupancy.
type PoolStats struct {
	LiveHot   int    // live PCBs with no buffer block attached (compact)
	LiveFull  int    // live PCBs with buffers attached
	FreeConns int    // recycled PCB structs awaiting reuse
	FreeBufs  int    // recycled buffer blocks awaiting reuse
	Reused    uint64 // cumulative PCB recycles
}

// PoolStats returns a snapshot of the PCB pool occupancy.
func (e *Engine) PoolStats() PoolStats {
	ps := PoolStats{FreeConns: len(e.connFree), FreeBufs: len(e.bufsFree), Reused: e.poolReused}
	for _, c := range e.conns {
		if c.bufs != nil {
			ps.LiveFull++
		} else {
			ps.LiveHot++
		}
	}
	return ps
}

// embEntry is one arrival in a listener's embryonic queue. The ID tells a
// live entry from one whose PCB has been recycled since: a recycled Conn
// gets a new ID.
type embEntry struct {
	c  *Conn
	id uint64
}

// live reports whether the entry's connection is still the one that arrived
// and is still in SYN_RCVD.
func (en embEntry) live() bool { return en.c.ID == en.id && en.c.state == StateSynRcvd }

// pushEmbryonic records a new SYN_RCVD connection at the back of the
// listener's arrival order. When the array is full and at least half of it
// lies in front of embHead, the queue is compacted into it instead of
// growing, so shedding from the front cannot grow the array for ever.
func (l *Listener) pushEmbryonic(c *Conn) {
	l.embryonic++
	if len(l.embQ) == cap(l.embQ) && l.embHead >= len(l.embQ)/2 {
		l.compactEmbryonic()
	}
	l.embQ = append(l.embQ, embEntry{c: c, id: c.ID})
}

// popEmbryonic takes the oldest connection still in SYN_RCVD off the queue,
// dropping the stale entries in front of it. The caller must know one
// exists (embryonic > 0).
func (l *Listener) popEmbryonic() *Conn {
	for {
		en := l.embQ[l.embHead]
		l.embQ[l.embHead] = embEntry{}
		l.embHead++
		if en.live() {
			return en.c
		}
	}
}

// leaveEmbryonic accounts for a connection leaving SYN_RCVD; its entry goes
// stale where it stands. Once stale entries outnumber live ones the queue is
// compacted, so it never holds more than twice the embryonic count plus a
// small floor that spares tiny queues the copying.
func (l *Listener) leaveEmbryonic() {
	l.embryonic--
	if n := len(l.embQ) - l.embHead; n > embQueueFloor && n-l.embryonic > l.embryonic {
		l.compactEmbryonic()
	}
}

// compactEmbryonic moves the live entries, in order, to the front of the
// array and clears the rest.
func (l *Listener) compactEmbryonic() {
	live := l.embQ[:0]
	for _, en := range l.embQ[l.embHead:] {
		if en.live() {
			live = append(live, en)
		}
	}
	clear(l.embQ[len(live):])
	l.embQ, l.embHead = live, 0
}

// embQueueFloor is the queue length up to which leaveEmbryonic never
// compacts.
const embQueueFloor = 16

// Flow returns the flow (local as source) of a connection key.
func (k connKey) flow() proto.Flow {
	return proto.Flow{
		Src: k.localAddr, SrcPort: k.localPort,
		Dst: k.remoteAddr, DstPort: k.remotePort,
		Proto: proto.ProtoTCP,
	}
}

// LookupListener returns the listener bound to port (any address), or nil.
func (e *Engine) LookupListener(port uint16) *Listener {
	for _, l := range e.listeners {
		if l.key.port == port {
			return l
		}
	}
	return nil
}

// EmbryonicConns returns the number of half-open (SYN_RCVD) connections
// across all listeners — the PCB-table footprint a SYN flood inflates and
// SYN-cookie offload keeps at zero.
func (e *Engine) EmbryonicConns() int {
	n := 0
	for _, l := range e.listeners {
		n += l.embryonic
	}
	return n
}
