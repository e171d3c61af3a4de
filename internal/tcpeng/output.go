package tcpeng

import (
	"neat/internal/proto"
)

// Send appends data to the send buffer and transmits what the windows
// allow. It returns the number of bytes accepted (0 when the buffer is
// full — the socket layer blocks the app until SendSpace fires).
func (c *Conn) Send(data []byte) int {
	if c.userClosed || (c.state != StateEstablished && c.state != StateCloseWait) {
		return 0
	}
	b := c.ensureBufs()
	space := c.engine.cfg.SendBuf - len(b.snd)
	if space <= 0 {
		return 0
	}
	if len(data) > space {
		data = data[:space]
	}
	b.appendSnd(data)
	c.trySend()
	return len(data)
}

// SendSpaceFree returns the free bytes in the send buffer.
func (c *Conn) SendSpaceFree() int { return c.engine.cfg.SendBuf - len(c.sndBuf()) }

// Recv takes up to max bytes of in-order received data (max <= 0: all of
// it). The bytes leave the engine with the call: nothing here refers to the
// returned slice any more, and a caller that took everything available holds
// the whole pooled chunk and may hand it to bufpool.Put once done with it
// (dropping it is as safe as dropping any pooled buffer). A growing receive
// window is re-advertised opportunistically by the next outbound segment.
func (c *Conn) Recv(max int) []byte {
	avail := len(c.rcvBuf())
	if avail == 0 {
		return nil
	}
	var out []byte
	if max <= 0 || max >= avail {
		out, c.bufs.rcv = c.bufs.rcv, nil
	} else {
		out = c.bufs.rcv[:max:max]
		c.bufs.rcv = c.bufs.rcv[max:]
	}
	// If the window was closed and now reopened substantially, send a
	// window update so the peer resumes.
	if c.rcv.lastWndAdvertised == 0 && c.recvWindow() >= uint32(c.mss) {
		c.sendAck()
	}
	return out
}

// EOF reports whether the peer's FIN has been fully received and all data
// consumed.
func (c *Conn) EOF() bool {
	return c.rcv.finSeen && c.rcv.nxt == c.rcv.finSeq+1 && len(c.rcvBuf()) == 0
}

// Close performs an orderly close: any buffered data is still delivered,
// then a FIN is sent.
func (c *Conn) Close() {
	if c.userClosed {
		return
	}
	c.userClosed = true
	switch c.state {
	case StateSynSent:
		c.destroy(causeClosed, false)
		return
	case StateEstablished, StateSynRcvd:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	default:
		return
	}
	c.snd.finQueued = true
	c.trySend()
}

// Abort sends RST and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	if c.state != StateSynSent && c.state != StateTimeWait {
		c.engine.stats.ResetsOut++
		c.engine.stats.SegsOut++
		var hdr proto.TCPHeader
		hdr.SrcPort, hdr.DstPort = c.key.localPort, c.key.remotePort
		hdr.Flags = proto.TCPRst | proto.TCPAck
		hdr.Seq = c.snd.nxt
		hdr.Ack = c.rcv.nxt
		c.engine.env.SendSegment(c, OutSegment{
			Src: c.key.localAddr, Dst: c.key.remoteAddr, Hdr: hdr, MSS: int(c.mss),
		})
	}
	c.destroy(causeClosed, true)
}

// recvWindow returns the receive window we can advertise.
func (c *Conn) recvWindow() uint32 {
	w := c.engine.cfg.recvBuf - len(c.rcvBuf())
	if w < 0 {
		w = 0
	}
	return uint32(w)
}

// advertisedWindow computes the window field (scaled) and records it.
func (c *Conn) advertisedWindow() uint16 {
	w := c.recvWindow()
	c.rcv.lastWndAdvertised = w
	if w == 0 {
		c.engine.stats.ZeroWindowAdvertised++
	}
	scaled := w >> c.rcv.wndShift
	if scaled > 0xffff {
		scaled = 0xffff
	}
	return uint16(scaled)
}

// sendFlags emits a control segment (SYN, SYN|ACK, bare ACK, ...).
// syn selects SYN options (MSS + window scale offer).
func (c *Conn) sendFlags(flags uint8, seq, ack uint32, syn bool) {
	e := c.engine
	var hdr proto.TCPHeader
	hdr.SrcPort, hdr.DstPort = c.key.localPort, c.key.remotePort
	hdr.Flags = flags
	hdr.Seq = seq
	hdr.Ack = ack
	hdr.Window = c.advertisedWindow()
	if syn {
		hdr.Opts.MSS = ourMSS
		hdr.Opts.HasWScale = true
		hdr.Opts.WScale = c.rcv.wndShift
		// SYN segments advertise the unscaled window.
		w := c.recvWindow()
		if w > 0xffff {
			w = 0xffff
		}
		hdr.Window = uint16(w)
	}
	e.stats.SegsOut++
	e.env.SendSegment(c, OutSegment{
		Src: c.key.localAddr, Dst: c.key.remoteAddr, Hdr: hdr, MSS: int(c.mss),
	})
	c.ackPending = 0
	if c.delAckArmed {
		c.delAckArmed = false
		e.env.StopTimer(c, TimerDelAck)
	}
}

// sendAck emits an immediate bare ACK.
func (c *Conn) sendAck() {
	c.sendFlags(proto.TCPAck, c.snd.nxt, c.rcv.nxt, false)
}

// maybeSendAck implements delayed ACKs: every second segment immediately,
// otherwise after delAckDelay.
func (c *Conn) maybeSendAck() {
	if c.ackPending == 0 {
		return
	}
	if c.ackPending >= 2 {
		c.sendAck()
		return
	}
	if !c.delAckArmed {
		c.delAckArmed = true
		c.engine.env.ArmTimer(c, TimerDelAck, delAckDelay)
	}
}

// trySend transmits as much buffered data (and the queued FIN) as the
// congestion and peer windows allow.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateLastAck && c.state != StateClosing {
		return
	}
	e := c.engine
	for {
		inFlight := c.snd.nxt - c.snd.una
		if c.snd.finSent {
			break // everything including FIN is out
		}
		wnd := c.snd.wnd
		if c.snd.cwnd < wnd {
			wnd = c.snd.cwnd
		}
		var avail uint32
		if wnd > inFlight {
			avail = wnd - inFlight
		}
		unsent := uint32(len(c.sndBuf())) - inFlight
		if unsent == 0 && !c.snd.finQueued {
			break
		}

		// Zero/insufficient window: wait for ACKs, or arm the persist
		// timer when the peer closed the window completely.
		if avail == 0 {
			if c.snd.wnd == 0 && inFlight == 0 && unsent > 0 {
				e.env.ArmTimer(c, TimerPersist, persistInterval)
			}
			break
		}

		chunk := unsent
		if chunk > avail {
			chunk = avail
		}
		maxSeg := uint32(c.mss)
		if e.cfg.TSO {
			maxSeg = tsoMax
		}
		if chunk > maxSeg {
			chunk = maxSeg
		}

		fin := false
		if c.snd.finQueued && chunk == unsent {
			fin = true // FIN rides the last segment
		}
		if chunk == 0 && !fin {
			break
		}
		c.emitData(c.snd.nxt, chunk, fin)
		c.snd.nxt += chunk
		if fin {
			c.snd.finSent = true
			c.snd.nxt++
		}
		e.env.ArmTimer(c, TimerRexmit, c.rto)
		// Time one segment per window for RTT.
		if !c.rttTiming && chunk > 0 {
			c.rttTiming = true
			c.rttSeq = c.snd.nxt
			c.rttAt = e.env.Now()
		}
		if fin {
			break
		}
	}
}

// emitData sends payload bytes [seq, seq+n) from the send buffer.
func (c *Conn) emitData(seq, n uint32, fin bool) {
	e := c.engine
	off := seq - c.snd.una
	payload := c.sndBuf()[off : off+n]
	var hdr proto.TCPHeader
	hdr.SrcPort, hdr.DstPort = c.key.localPort, c.key.remotePort
	hdr.Flags = proto.TCPAck | proto.TCPPsh
	if fin {
		hdr.Flags |= proto.TCPFin
	}
	hdr.Seq = seq
	hdr.Ack = c.rcv.nxt
	hdr.Window = c.advertisedWindow()
	e.stats.SegsOut++
	e.stats.DataBytesOut += uint64(n)
	// Payload is a view into the send buffer, valid until SendSegment
	// returns: the environment copies it, into the outbound frame or into a
	// TSO buffer of its own, so the buffer is free to move its bytes later.
	e.env.SendSegment(c, OutSegment{
		Src: c.key.localAddr, Dst: c.key.remoteAddr, Hdr: hdr,
		Payload: payload,
		TSO:     e.cfg.TSO && n > uint32(c.mss),
		MSS:     int(c.mss),
	})
	c.ackPending = 0
	if c.delAckArmed {
		c.delAckArmed = false
		e.env.StopTimer(c, TimerDelAck)
	}
}

// retransmit resends one MSS from snd.una (and the FIN if due).
func (c *Conn) retransmit() {
	e := c.engine
	inFlightSeq := c.snd.nxt - c.snd.una
	if inFlightSeq == 0 {
		return
	}
	n := uint32(len(c.sndBuf()))
	if n > uint32(c.mss) {
		n = uint32(c.mss)
	}
	dataOutstanding := inFlightSeq
	if c.snd.finSent {
		dataOutstanding--
	}
	if n > dataOutstanding {
		n = dataOutstanding
	}
	fin := false
	if c.snd.finSent && n == dataOutstanding {
		fin = true
	}
	if n == 0 && !fin {
		return
	}
	e.stats.Retransmits++
	c.emitData(c.snd.una, n, fin)
	// Karn's algorithm: don't time retransmitted sequences.
	c.rttTiming = false
}

// measureRTT updates srtt/rttvar/rto per RFC 6298 when the timed segment
// is acknowledged.
func (c *Conn) measureRTT(ack uint32) {
	if !c.rttTiming || proto.SeqLT(ack, c.rttSeq) {
		return
	}
	c.rttTiming = false
	r := c.engine.env.Now() - c.rttAt
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rto = rto
}

// renoOnAck grows cwnd (slow start / congestion avoidance) and exits fast
// recovery when the recovery point is passed.
func (c *Conn) renoOnAck(acked, ack uint32) {
	mss := uint32(c.mss)
	if c.snd.inFastRecovery {
		if proto.SeqGEQ(ack, c.snd.recover) {
			c.snd.inFastRecovery = false
			c.snd.dupAcks = 0
			c.snd.cwnd = c.snd.ssthresh
		} else {
			// Partial ACK: retransmit next hole immediately.
			c.retransmit()
			return
		}
	}
	c.snd.dupAcks = 0
	if c.snd.cwnd < c.snd.ssthresh {
		c.snd.cwnd += acked // slow start
	} else {
		// Congestion avoidance: ~1 MSS per RTT.
		add := mss * mss / c.snd.cwnd
		if add == 0 {
			add = 1
		}
		c.snd.cwnd += add
	}
	if max := uint32(c.engine.cfg.SendBuf) * 2; c.snd.cwnd > max {
		c.snd.cwnd = max
	}
}

// onDupAck counts duplicate ACKs and triggers Reno fast retransmit.
func (c *Conn) onDupAck() {
	e := c.engine
	if c.snd.inFastRecovery {
		c.snd.cwnd += uint32(c.mss) // inflate
		c.trySend()
		return
	}
	c.snd.dupAcks++
	if c.snd.dupAcks == 3 {
		e.stats.FastRetransmits++
		fl := c.snd.nxt - c.snd.una
		half := fl / 2
		if half < 2*uint32(c.mss) {
			half = 2 * uint32(c.mss)
		}
		c.snd.ssthresh = half
		c.snd.recover = c.snd.nxt
		c.snd.inFastRecovery = true
		c.retransmit()
		c.snd.cwnd = c.snd.ssthresh + 3*uint32(c.mss)
	}
}

// OnTimer must be called by the Env owner when a previously armed timer
// fires. It dispatches to the protocol action for the timer kind. The
// engine-identity check rejects fires that leaked across a checkpoint/
// restore re-bind: a timer armed by a previous engine incarnation must not
// drive protocol actions against the engine that restored the connection.
func (e *Engine) OnTimer(c *Conn, k TimerKind) {
	if c.engine != e || c.state == StateClosed || c.removed {
		e.stats.SpuriousTimerFirings++
		return
	}
	switch k {
	case TimerRexmit:
		e.onRexmitTimeout(c)
	case TimerPersist:
		e.onPersist(c)
	case TimerDelAck:
		c.delAckArmed = false
		if c.ackPending > 0 {
			e.stats.DelayedAcksSent++
			c.sendAck()
		}
	case TimerTimeWait:
		e.stats.TimeWaitReaped++
		c.destroy(causeNone, false)
	case TimerGuard:
		e.onGuardTimer(c)
	}
}

// armGuard starts deadline policing on a freshly accepted server-side
// connection. Called only from the passive-establishment path, so active
// (client) connections are never reaped by their own engine's guards.
func (e *Engine) armGuard(c *Conn) {
	g := e.cfg.Guard
	switch {
	case g.HeaderDeadline > 0:
		c.guardPhase = guardHeader
		e.env.ArmTimer(c, TimerGuard, g.HeaderDeadline)
	case g.IdleDeadline > 0:
		c.guardPhase = guardIdle
		e.env.ArmTimer(c, TimerGuard, g.IdleDeadline)
	}
}

// onGuardTimer enforces the header-progress and idle deadlines.
//
// The header phase checks a cumulative payload floor, not mere progress:
// a slowloris client trickling one header byte per tick advances rcv.nxt
// every time, but still dies at the deadline with < HeaderMinBytes
// delivered. The idle phase then polices total inbound silence — any
// segment (bare ACKs during a long download included) counts as activity,
// so a legitimately receiving client is never reaped.
func (e *Engine) onGuardTimer(c *Conn) {
	g := e.cfg.Guard
	if c.state != StateEstablished {
		// The connection is closing (or already past ESTABLISHED): the
		// FIN/TIME_WAIT teardown legitimately receives nothing, and the
		// regular rexmit/TIME_WAIT machinery bounds its lifetime. Disarm.
		c.guardPhase = guardNone
		return
	}
	switch c.guardPhase {
	case guardHeader:
		if c.rcv.nxt-c.irs-1 < uint32(g.HeaderMinBytes) {
			e.stats.SlowlorisReaped++
			c.Abort()
			return
		}
		if g.IdleDeadline > 0 {
			c.guardPhase = guardIdle
			e.env.ArmTimer(c, TimerGuard, g.IdleDeadline)
		} else {
			c.guardPhase = guardNone
		}
	case guardIdle:
		idle := e.env.Now() - c.lastActivity
		if idle >= g.IdleDeadline {
			e.stats.SlowlorisReaped++
			c.Abort()
			return
		}
		e.env.ArmTimer(c, TimerGuard, g.IdleDeadline-idle)
	}
}

// onRexmitTimeout handles RTO expiry: exponential backoff, cwnd collapse,
// retransmission of the oldest segment (or SYN).
func (e *Engine) onRexmitTimeout(c *Conn) {
	switch c.state {
	case StateSynSent:
		c.rto *= 2
		if c.rto > maxRTO {
			c.destroy(causeClosed, false)
			return
		}
		e.stats.Retransmits++
		c.sendFlags(proto.TCPSyn, c.iss, 0, true)
		e.env.ArmTimer(c, TimerRexmit, c.rto)
		return
	case StateSynRcvd:
		c.rto *= 2
		if c.rto > maxRTO {
			c.destroy(causeClosed, false)
			return
		}
		e.stats.Retransmits++
		c.sendFlags(proto.TCPSyn|proto.TCPAck, c.iss, c.rcv.nxt, true)
		e.env.ArmTimer(c, TimerRexmit, c.rto)
		return
	}
	if c.snd.nxt == c.snd.una {
		return // nothing outstanding
	}
	c.rexmitCount++
	if c.rexmitCount > maxRetries {
		e.stats.RetriesExceeded++
		c.destroy(causeClosed, false)
		return
	}
	// Collapse to slow start.
	fl := c.snd.nxt - c.snd.una
	half := fl / 2
	if half < 2*uint32(c.mss) {
		half = 2 * uint32(c.mss)
	}
	c.snd.ssthresh = half
	c.snd.cwnd = uint32(c.mss)
	c.snd.inFastRecovery = false
	c.snd.dupAcks = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.retransmit()
	e.env.ArmTimer(c, TimerRexmit, c.rto)
}

// onPersist sends a zero-window probe while the peer advertises zero.
func (e *Engine) onPersist(c *Conn) {
	if c.snd.wnd > 0 {
		c.trySend()
		return
	}
	inFlight := c.snd.nxt - c.snd.una
	if uint32(len(c.sndBuf())) <= inFlight {
		return // nothing unsent to probe with
	}
	e.stats.PersistProbes++
	// Probe with one byte beyond the window (classic BSD behaviour). The
	// receiver will drop the byte but ACK, and the retransmission timer
	// recovers the byte once the window reopens.
	c.emitData(c.snd.nxt, 1, false)
	c.snd.nxt++
	e.env.ArmTimer(c, TimerRexmit, c.rto)
	e.env.ArmTimer(c, TimerPersist, persistInterval)
}
