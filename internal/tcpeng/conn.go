package tcpeng

import (
	"fmt"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

// Conn is one TCP protocol control block. All of a connection's state lives
// here, inside exactly one engine, inside exactly one replica — the paper's
// partitioning unit.
//
// Fields are grouped by size, 8-byte words first, then the 32-bit sequence
// space, then single bytes and flags, so the struct fits Go's 352-byte size
// class (TestConnSize; DESIGN.md §15 has the byte budget).
type Conn struct {
	engine *Engine
	ID     uint64

	// Listener that spawned this connection (passive opens only).
	Listener *Listener
	// Ctx is opaque owner context (socket bookkeeping in the stack).
	Ctx interface{}

	// bufs is the lazily attached buffer block (send/receive buffers and
	// the reassembly list). It stays nil until the connection buffers its
	// first byte, so embryonic and idle connections cost only this compact
	// struct. The block returns to the engine pool on entry to TIME_WAIT if
	// it holds no bytes (see enterTimeWait), else on removal.
	bufs *connBufs

	// RTT estimation (RFC 6298).
	srtt, rttvar sim.Time
	rto          sim.Time
	rttAt        sim.Time // when the timed sequence was sent

	lastActivity sim.Time // arrival time of the last inbound segment (guards)

	// Timers are the intrusive per-connection timer nodes, indexed by
	// TimerKind. The Env arms and stops through them with zero allocations:
	// each node carries its own simulator timer and doubles as the fire
	// message (see ConnTimer).
	Timers [NumTimers]ConnTimer

	key connKey

	iss, irs uint32 // initial send/recv sequence numbers
	mss      int32  // effective MSS (min of ours and peer's)
	rttSeq   uint32 // sequence being timed

	// Delayed ACK bookkeeping: segments received since the last ACK sent.
	ackPending int32

	snd struct {
		una, nxt uint32 // oldest unacked, next to send
		wnd      uint32 // peer's advertised window (scaled)
		cwnd     uint32 // congestion window (bytes)
		ssthresh uint32
		recover  uint32 // recovery point for Reno
		dupAcks  int32

		wndShift       uint8 // peer's window scale
		inFastRecovery bool
		finQueued      bool // app closed; FIN after buffer drains
		finSent        bool
	}

	rcv struct {
		nxt               uint32
		finSeq            uint32
		lastWndAdvertised uint32
		wndShift          uint8
		finSeen           bool
	}

	state       State
	rexmitCount uint8      // consecutive RTO firings without progress
	guardPhase  guardPhase // resource-guard deadline (server side only; see GuardConfig)
	cause       closeCause // why the connection died; see Err

	rttTiming   bool
	delAckArmed bool
	userClosed  bool
	removed     bool
}

// closeCause records why a connection died in one byte; Err turns it back
// into the error callers compare against.
type closeCause uint8

const (
	causeNone   closeCause = iota // open, or closed in order
	causeClosed                   // ErrConnClosed
	causeReset                    // ErrReset
)

var causeErrs = [...]error{causeNone: nil, causeClosed: ErrConnClosed, causeReset: ErrReset}

// Err reports why the connection died abnormally: ErrReset for a reset from
// the peer, ErrConnClosed for a local close before establishment, an abort,
// a timeout or a shed handshake, and nil otherwise.
func (c *Conn) Err() error { return causeErrs[c.cause] }

// ooSeg is an out-of-order segment held for reassembly.
type ooSeg struct {
	seq  uint32
	data []byte
}

// connBufs is a connection's buffer block: send/receive byte buffers plus
// the out-of-order reassembly list. Blocks are pooled per engine and
// attached to a Conn only when it first buffers data.
type connBufs struct {
	snd    []byte  // unacked+unsent bytes; snd[0] is seq snd.una
	sndArr []byte  // the whole array snd slides through
	rcv    []byte  // in-order data awaiting Recv
	oo     []ooSeg // out-of-order segments, sorted by seq
}

// recycle empties the block for reuse. The block holds the only reference
// to everything in it: a send payload handed to the Env is valid only until
// SendSegment returns, and Recv moves what it hands out of the block. So the
// send array is reusable from its first byte, and unread receive bytes and
// unmerged out-of-order segments go back to the buffer pools.
func (b *connBufs) recycle() {
	b.snd = b.sndArr[:0]
	bufpool.Put(b.rcv)
	b.rcv = nil
	for i := range b.oo {
		bufpool.Put(b.oo[i].data)
		b.oo[i] = ooSeg{}
	}
	b.oo = b.oo[:0]
}

// appendSnd adds data behind the live send bytes. ACKs slide snd forward
// through sndArr; once the slide has eaten the room behind the live bytes
// they move back to the front of the same array, so a connection in steady
// state reuses one array and append never grows the slice. A new array is
// made only when live bytes plus data do not fit the old one, sized to
// exactly what they need. Moving the live bytes is safe because nothing
// outside the block refers to them (see Env.SendSegment).
func (b *connBufs) appendSnd(data []byte) {
	live := len(b.snd)
	if cap(b.snd)-live < len(data) {
		arr := b.sndArr
		if need := live + len(data); need > len(arr) {
			arr = make([]byte, need)
		}
		copy(arr, b.snd)
		b.sndArr, b.snd = arr, arr[:live]
	}
	b.snd = append(b.snd, data...)
}

// appendRcv adds in-order bytes to the receive buffer. An empty buffer — the
// only case on a path that drains per segment — starts a pooled chunk, which
// Recv later hands to the caller whole.
func (b *connBufs) appendRcv(p []byte) {
	if len(b.rcv) == 0 {
		b.rcv = bufpool.Get(len(p))[:0]
	}
	b.rcv = append(b.rcv, p...)
}

// sndBuf returns the send buffer (nil when no block is attached).
func (c *Conn) sndBuf() []byte {
	if c.bufs == nil {
		return nil
	}
	return c.bufs.snd
}

// rcvBuf returns the receive buffer (nil when no block is attached).
func (c *Conn) rcvBuf() []byte {
	if c.bufs == nil {
		return nil
	}
	return c.bufs.rcv
}

// ensureBufs attaches the buffer block, recycling a pooled one if possible.
func (c *Conn) ensureBufs() *connBufs {
	if c.bufs == nil {
		c.bufs = c.engine.getBufs()
	}
	return c.bufs
}

// guardPhase tracks which resource-guard deadline a connection is under.
type guardPhase uint8

const (
	guardNone   guardPhase = iota
	guardHeader            // must deliver HeaderMinBytes by HeaderDeadline
	guardIdle              // must show inbound activity within IdleDeadline
)

// LocalAddr returns the local address and port.
func (c *Conn) LocalAddr() (proto.Addr, uint16) { return c.key.localAddr, c.key.localPort }

// RemoteAddr returns the remote address and port.
func (c *Conn) RemoteAddr() (proto.Addr, uint16) { return c.key.remoteAddr, c.key.remotePort }

// InboundFlow returns the flow as the NIC sees arriving packets (remote as
// source) — the key NEaT installs in the flow-director filter (§4).
func (c *Conn) InboundFlow() proto.Flow { return c.key.flow().Reverse() }

// String summarizes the connection.
func (c *Conn) String() string {
	return fmt.Sprintf("%s %s:%d<>%s:%d", c.state,
		c.key.localAddr, c.key.localPort, c.key.remoteAddr, c.key.remotePort)
}

// Input demultiplexes one inbound TCP frame into the engine.
func (e *Engine) Input(f *proto.Frame) {
	if f.TCP == nil || f.IP == nil {
		return
	}
	e.stats.SegsIn++
	h := f.TCP
	k := connKey{
		localAddr: f.IP.Dst, localPort: h.DstPort,
		remoteAddr: f.IP.Src, remotePort: h.SrcPort,
	}
	if c, ok := e.conns[k]; ok {
		c.input(h, f.Payload)
		return
	}
	// No PCB: a SYN may create one via a listener.
	if h.Flags&proto.TCPSyn != 0 && h.Flags&proto.TCPAck == 0 {
		if l := e.lookupListener(f.IP.Dst, h.DstPort); l != nil && !l.closed {
			e.passiveOpen(l, k, h)
			return
		}
	}
	// An ACK with no PCB may complete a stateless SYN-cookie handshake.
	if e.cfg.Guard.SynCookies &&
		h.Flags&proto.TCPAck != 0 && h.Flags&(proto.TCPSyn|proto.TCPRst) == 0 {
		if l := e.lookupListener(f.IP.Dst, h.DstPort); l != nil && !l.closed {
			if e.completeCookie(l, k, h, f.Payload) {
				return
			}
		}
	}
	if h.Flags&proto.TCPRst == 0 {
		e.sendRST(k, h)
	}
}

// passiveOpen handles a SYN to a listening port.
func (e *Engine) passiveOpen(l *Listener, k connKey, h *proto.TCPHeader) {
	g := e.cfg.Guard
	if g.SynCookies && l.embryonic >= g.SynCookieWatermark {
		e.sendSynCookie(k, h) // stateless: no PCB until the ACK validates
		return
	}
	if g.SynBacklog > 0 && l.embryonic >= g.SynBacklog {
		// Deterministic oldest-first shedding: the oldest half-open
		// connection is the likeliest to be abandoned (a flood SYN never
		// completes), so recycle its slot for the newcomer. Shed silently —
		// the victim's source is probably spoofed, and an RST would only
		// burn an ARP lookup.
		e.stats.SynShed++
		l.popEmbryonic().destroy(causeClosed, false)
	}
	if l.embryonic+len(l.acceptQ) >= l.backlog {
		e.stats.DroppedSynBacklog++
		return // silently drop; client retransmits (SYN flood behaviour)
	}
	c := e.newConn(k)
	c.Listener = l
	l.pushEmbryonic(c)
	c.lastActivity = e.env.Now()
	c.state = StateSynRcvd
	c.irs = h.Seq
	c.rcv.nxt = h.Seq + 1
	c.iss = e.env.RandUint32()
	c.snd.una = c.iss
	c.snd.nxt = c.iss + 1
	c.applyPeerOptions(h)
	c.rto = initialRTO
	c.sendFlags(proto.TCPSyn|proto.TCPAck, c.iss, c.rcv.nxt, true)
	e.env.ArmTimer(c, TimerRexmit, c.rto)
}

// applyPeerOptions ingests MSS and window scale from a SYN/SYN-ACK.
func (c *Conn) applyPeerOptions(h *proto.TCPHeader) {
	if h.Opts.MSS != 0 && int32(h.Opts.MSS) < c.mss {
		c.mss = int32(h.Opts.MSS)
	}
	if h.Opts.HasWScale {
		c.snd.wndShift = h.Opts.WScale
	} else {
		c.rcv.wndShift = 0 // peer can't scale: don't scale ours either
	}
	c.snd.cwnd = uint32(initialCwndMSS * c.mss)
	c.snd.wnd = uint32(h.Window) << c.snd.wndShift
}

// sendRST replies RST to a segment that has no connection.
func (e *Engine) sendRST(k connKey, h *proto.TCPHeader) {
	e.stats.ResetsOut++
	var hdr proto.TCPHeader
	hdr.SrcPort, hdr.DstPort = k.localPort, k.remotePort
	hdr.Flags = proto.TCPRst | proto.TCPAck
	hdr.Seq = h.Ack
	hdr.Ack = h.Seq + segLen(h, 0)
	e.stats.SegsOut++
	e.env.SendSegment(nil, OutSegment{
		Src: k.localAddr, Dst: k.remoteAddr, Hdr: hdr, MSS: ourMSS,
	})
}

// segLen returns the sequence space a header consumes beyond payload.
func segLen(h *proto.TCPHeader, payload uint32) uint32 {
	n := payload
	if h.Flags&proto.TCPSyn != 0 {
		n++
	}
	if h.Flags&proto.TCPFin != 0 {
		n++
	}
	return n
}

// input runs the state machine for one segment on an existing PCB.
func (c *Conn) input(h *proto.TCPHeader, payload []byte) {
	e := c.engine
	c.lastActivity = e.env.Now()
	switch c.state {
	case StateSynSent:
		c.inputSynSent(h)
		return
	case StateClosed:
		return
	}

	// RST processing (RFC 793 §3.4): an RST at rcv.nxt or inside the receive
	// window kills the connection. One behind rcv.nxt is an old duplicate or
	// a blind guess, and is ignored.
	if h.Flags&proto.TCPRst != 0 {
		if off := h.Seq - c.rcv.nxt; off == 0 || off < c.recvWindow() {
			e.stats.ResetsIn++
			c.destroy(causeReset, true)
		}
		return
	}

	// TIME_WAIT: just re-ACK (the peer may have lost our last ACK).
	if c.state == StateTimeWait {
		if h.Flags&proto.TCPFin != 0 {
			c.sendAck()
		}
		return
	}

	// Sequence acceptability; pure-ACK at exactly rcv.nxt is always fine.
	plen := uint32(len(payload))
	if !c.seqAcceptable(h.Seq, plen+boolBit(h.Flags&proto.TCPFin != 0)) {
		// Out-of-window: send a corrective ACK (also handles old dup SYNs).
		c.sendAck()
		return
	}

	// SYN retransmit in SYN_RCVD: re-send SYN|ACK.
	if h.Flags&proto.TCPSyn != 0 && c.state == StateSynRcvd && h.Seq == c.irs {
		c.sendFlags(proto.TCPSyn|proto.TCPAck, c.iss, c.rcv.nxt, true)
		return
	}

	if h.Flags&proto.TCPAck == 0 {
		return // every segment past SYN must carry ACK
	}
	if !c.processAck(h) {
		return // connection destroyed or segment unacceptable
	}
	if len(payload) > 0 || h.Flags&proto.TCPFin != 0 {
		c.processData(h, payload)
	}
	c.trySend() // ACK may have opened window / freed buffer
	c.maybeSendAck()
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// seqAcceptable implements the RFC 793 window check.
func (c *Conn) seqAcceptable(seq, length uint32) bool {
	wnd := c.recvWindow()
	if length == 0 {
		if wnd == 0 {
			return seq == c.rcv.nxt
		}
		return proto.SeqGEQ(seq, c.rcv.nxt) && proto.SeqLT(seq, c.rcv.nxt+wnd) ||
			proto.SeqLT(seq, c.rcv.nxt) // old duplicate: still ACK it
	}
	if wnd == 0 {
		return false
	}
	segEnd := seq + length - 1
	startsIn := proto.SeqGEQ(seq, c.rcv.nxt) && proto.SeqLT(seq, c.rcv.nxt+wnd)
	endsIn := proto.SeqGEQ(segEnd, c.rcv.nxt) && proto.SeqLT(segEnd, c.rcv.nxt+wnd)
	return startsIn || endsIn
}

// inputSynSent handles segments while actively opening.
func (c *Conn) inputSynSent(h *proto.TCPHeader) {
	e := c.engine
	ackOK := h.Flags&proto.TCPAck != 0 &&
		proto.SeqGT(h.Ack, c.iss) && proto.SeqLEQ(h.Ack, c.snd.nxt)
	if h.Flags&proto.TCPRst != 0 {
		if ackOK {
			e.stats.ResetsIn++
			c.destroy(causeReset, true)
		}
		return
	}
	if h.Flags&proto.TCPSyn == 0 || !ackOK {
		return
	}
	c.irs = h.Seq
	c.rcv.nxt = h.Seq + 1
	c.snd.una = h.Ack
	c.applyPeerOptions(h)
	c.measureRTT(h.Ack)
	e.env.StopTimer(c, TimerRexmit)
	c.state = StateEstablished
	c.sendAck()
	e.env.Connected(c)
	c.trySend()
}

// processAck handles the ACK field: snd.una advance, RTT, Reno, state
// transitions for FIN acknowledgment. Returns false if c was destroyed.
func (c *Conn) processAck(h *proto.TCPHeader) bool {
	e := c.engine
	ack := h.Ack
	if proto.SeqGT(ack, c.snd.nxt) {
		c.sendAck() // acks the future: corrective ACK
		return false
	}

	// Window update (RFC 1122 ordering checks elided: sim links don't
	// reorder within a direction).
	c.snd.wnd = uint32(h.Window) << c.snd.wndShift

	if proto.SeqLEQ(ack, c.snd.una) {
		if ack == c.snd.una && c.bytesInFlight() > 0 {
			c.onDupAck()
		}
		return true
	}

	// New data acknowledged.
	c.rexmitCount = 0
	acked := ack - c.snd.una
	c.measureRTT(ack)
	c.advanceSendBuffer(acked, ack)
	c.renoOnAck(acked, ack)

	// SYN_RCVD → ESTABLISHED.
	if c.state == StateSynRcvd {
		c.state = StateEstablished
		e.stats.AcceptedConns++
		if c.Listener != nil {
			c.Listener.leaveEmbryonic()
			if len(c.Listener.acceptQ) >= c.Listener.backlog {
				c.Abort()
				return false
			}
			c.Listener.acceptQ = append(c.Listener.acceptQ, c)
			e.env.Accepted(c)
			e.armGuard(c)
		}
	}

	// FIN acknowledgment transitions.
	if c.snd.finSent && ack == c.snd.nxt {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.destroy(causeNone, false)
			return false
		}
	}

	// Retransmission timer: restart if data remains, stop otherwise.
	if c.bytesInFlight() > 0 || (c.snd.finSent && c.snd.una != c.snd.nxt) {
		e.env.ArmTimer(c, TimerRexmit, c.rto)
	} else {
		e.env.StopTimer(c, TimerRexmit)
	}
	return true
}

// bytesInFlight returns unacknowledged payload bytes.
func (c *Conn) bytesInFlight() uint32 {
	fl := c.snd.nxt - c.snd.una
	if c.snd.finSent && fl > 0 {
		fl-- // FIN occupies sequence space but not payload
	}
	if c.state == StateSynSent || c.state == StateSynRcvd {
		return 0
	}
	return fl
}

// advanceSendBuffer trims acked bytes and notifies the socket.
func (c *Conn) advanceSendBuffer(acked, ack uint32) {
	dataAcked := acked
	if c.snd.finSent && ack == c.snd.nxt {
		dataAcked-- // final byte was the FIN
	}
	if int(dataAcked) > len(c.sndBuf()) {
		dataAcked = uint32(len(c.sndBuf()))
	}
	if dataAcked > 0 {
		c.bufs.snd = c.bufs.snd[dataAcked:]
	}
	c.snd.una = ack
	if dataAcked > 0 {
		c.engine.env.SendSpace(c)
	}
}

// processData ingests payload and FIN.
func (c *Conn) processData(h *proto.TCPHeader, payload []byte) {
	e := c.engine
	seq := h.Seq
	fin := h.Flags&proto.TCPFin != 0
	// The FIN occupies the sequence number right after the (untrimmed)
	// payload of this segment.
	finSeq := h.Seq + uint32(len(payload))

	// Trim anything before rcv.nxt (retransmitted overlap).
	if proto.SeqLT(seq, c.rcv.nxt) {
		skip := c.rcv.nxt - seq
		if skip >= uint32(len(payload)) {
			payload = nil
		} else {
			payload = payload[skip:]
		}
		seq = c.rcv.nxt
	}

	if len(payload) > 0 {
		if seq == c.rcv.nxt {
			c.appendInOrder(payload)
			c.mergeOutOfOrder()
		} else if proto.SeqGT(seq, c.rcv.nxt) {
			e.stats.OutOfOrderIn++
			c.insertOutOfOrder(seq, payload)
			c.ackPending = 2 // force immediate dup-ACK
		}
	}

	if fin && !proto.SeqLT(finSeq, c.rcv.nxt) {
		c.rcv.finSeen = true
		c.rcv.finSeq = finSeq
	}
	c.maybeProcessFin()
}

// appendInOrder moves in-order payload into the receive buffer.
func (c *Conn) appendInOrder(payload []byte) {
	b := c.ensureBufs()
	space := c.engine.cfg.recvBuf - len(b.rcv)
	if space < len(payload) {
		payload = payload[:space] // peer overran our window; drop excess
	}
	if len(payload) == 0 {
		return
	}
	b.appendRcv(payload)
	c.rcv.nxt += uint32(len(payload))
	c.engine.stats.DataBytesIn += uint64(len(payload))
	c.ackPending++
	c.engine.env.DataReadable(c)
}

// insertOutOfOrder stores a copy of a future segment, in a pooled buffer,
// sorted by sequence.
func (c *Conn) insertOutOfOrder(seq uint32, payload []byte) {
	b := c.ensureBufs()
	if len(b.oo) > 64 {
		return // bound memory; peer will retransmit
	}
	data := append(bufpool.Get(len(payload))[:0], payload...)
	at := len(b.oo)
	for i, s := range b.oo {
		if proto.SeqLT(seq, s.seq) {
			at = i
			break
		}
	}
	b.oo = append(b.oo, ooSeg{})
	copy(b.oo[at+1:], b.oo[at:])
	b.oo[at] = ooSeg{seq: seq, data: data}
}

// mergeOutOfOrder pulls newly contiguous segments into the buffer.
func (c *Conn) mergeOutOfOrder() {
	b := c.bufs
	if b == nil {
		return
	}
	for len(b.oo) > 0 {
		s := b.oo[0]
		if proto.SeqGT(s.seq, c.rcv.nxt) {
			return
		}
		// Shift rather than slide: the list keeps its (bounded) array.
		n := copy(b.oo, b.oo[1:])
		b.oo[n] = ooSeg{}
		b.oo = b.oo[:n]
		if proto.SeqGT(s.seq+uint32(len(s.data)), c.rcv.nxt) { // else fully duplicate
			c.appendInOrder(s.data[c.rcv.nxt-s.seq:])
		}
		bufpool.Put(s.data)
	}
}

// maybeProcessFin consumes the peer FIN once all data before it arrived.
func (c *Conn) maybeProcessFin() {
	if !c.rcv.finSeen || c.rcv.nxt != c.rcv.finSeq {
		return
	}
	e := c.engine
	c.rcv.nxt++ // FIN consumes one sequence number
	c.ackPending = 2

	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		e.env.DataReadable(c) // EOF is readable
	case StateFinWait1:
		if c.snd.finSent && c.snd.una == c.snd.nxt {
			c.enterTimeWait()
		} else {
			c.state = StateClosing
		}
		e.env.ConnClosed(c, false)
	case StateFinWait2:
		c.enterTimeWait()
		e.env.ConnClosed(c, false)
	}
}

// enterTimeWait moves to TIME_WAIT and arms the reaper. Our FIN is acked and
// the peer's has arrived, so no byte moves either way any more: a block with
// no unread or out-of-order bytes would sit idle through the wait, and goes
// back to the pool now. The PCB stays until the reaper fires, to re-ACK a
// retransmitted FIN.
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	e := c.engine
	e.env.StopTimer(c, TimerRexmit)
	e.env.ArmTimer(c, TimerTimeWait, timeWait)
	if b := c.bufs; b != nil && len(b.snd) == 0 && len(b.rcv) == 0 && len(b.oo) == 0 {
		c.releaseBufs()
	}
}

// destroy tears down a connection immediately (RST in/out or LastAck done).
func (c *Conn) destroy(cause closeCause, reset bool) {
	if c.state == StateClosed {
		return
	}
	wasEmbryonic := c.state == StateSynRcvd
	wasVisible := c.state == StateEstablished || c.state == StateSynRcvd ||
		c.state == StateSynSent || c.state == StateCloseWait ||
		c.state == StateFinWait1 || c.state == StateFinWait2 || c.state == StateClosing
	c.state = StateClosed
	c.cause = cause
	if c.Listener != nil {
		if wasEmbryonic {
			// A SYN_RCVD connection dying (SYN-ACK retry exhaustion, peer
			// RST, guard shed) must release its backlog slot, or a flood of
			// abandoned handshakes wedges the listener permanently.
			c.Listener.leaveEmbryonic()
		}
		// Remove from accept queue if never accepted.
		for i, qc := range c.Listener.acceptQ {
			if qc == c {
				c.Listener.unqueue(i)
				break
			}
		}
	}
	if wasVisible {
		c.engine.env.ConnClosed(c, reset)
	}
	c.engine.remove(c)
}
