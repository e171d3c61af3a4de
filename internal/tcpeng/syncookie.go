package tcpeng

import (
	"neat/internal/proto"
	"neat/internal/sim"
)

// SYN-cookie handshake offload (GuardConfig.SynCookies).
//
// Above the listener's embryonic watermark, a SYN is answered statelessly:
// the SYN|ACK's initial sequence number is a cookie binding the 4-tuple, a
// coarse time slot and the negotiated MSS under an engine secret. No PCB is
// created — a SYN flood therefore never touches the PCB table — and the
// connection materializes, directly ESTABLISHED, only when the completing
// ACK returns a cookie that verifies. The cost, exactly as in real stacks:
// cookie connections lose window scaling (a stateless handshake cannot
// remember the offer) and the MSS is quantized to a small table.
//
// Cookie layout (32 bits): [31:29] time slot, [28:26] MSS table index,
// [25:0] truncated keyed hash over (secret, 4-tuple, slot, mss index).

const (
	// cookieSlotShift converts sim time to ~69 s validity slots (2^36 ns);
	// a cookie is accepted in the slot it was minted and the next one.
	cookieSlotShift = 36
	cookieHashBits  = 26
	cookieHashMask  = 1<<cookieHashBits - 1
)

// cookieMSSTable quantizes the peer's MSS offer (largest entry <= offer).
var cookieMSSTable = [4]int{536, 1220, 1440, 1460}

func cookieMSSIndex(mss int) uint32 {
	idx := 0
	for i, v := range cookieMSSTable {
		if v <= mss {
			idx = i
		}
	}
	return uint32(idx)
}

// cookieKey returns the engine secret, drawing it from the Env RNG on first
// use. Lazy on purpose: an engine that never mints a cookie consumes an RNG
// stream identical to a build without cookies at all, which the repository's
// md5-pinned determinism oracles rely on.
func (e *Engine) cookieKey() uint32 {
	if !e.cookieSecretSet {
		e.cookieSecret = e.env.RandUint32()
		e.cookieSecretSet = true
	}
	return e.cookieSecret
}

// cookieHash is a keyed 26-bit mix over the 4-tuple, slot and MSS index.
// splitmix64-style finalization — not cryptographic, but neither is the
// simulated adversary.
func cookieHash(secret uint32, k connKey, slot, mssIdx uint32) uint32 {
	h := uint64(secret)<<32 | uint64(slot)<<3 | uint64(mssIdx)
	mix := func(v uint64) {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	mix(uint64(addrU32(k.localAddr))<<16 | uint64(k.localPort))
	mix(uint64(addrU32(k.remoteAddr))<<16 | uint64(k.remotePort))
	mix(h >> 17)
	return uint32(h) & cookieHashMask
}

func addrU32(a proto.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// encodeCookie mints the ISN for a stateless SYN|ACK.
func (e *Engine) encodeCookie(k connKey, peerMSS int, now sim.Time) uint32 {
	slot := uint32(now>>cookieSlotShift) & 7
	idx := cookieMSSIndex(peerMSS)
	return slot<<29 | idx<<26 | cookieHash(e.cookieKey(), k, slot, idx)
}

// checkCookie validates a cookie from a completing ACK (ack-1) and returns
// the MSS it encodes. Cookies from the current and previous time slot are
// accepted.
func (e *Engine) checkCookie(k connKey, now sim.Time, cookie uint32) (mss int, ok bool) {
	slot := cookie >> 29
	idx := (cookie >> 26) & 7
	if int(idx) >= len(cookieMSSTable) {
		return 0, false
	}
	cur := uint32(now >> cookieSlotShift)
	if cur&7 != slot && (cur-1)&7 != slot {
		return 0, false
	}
	if cookieHash(e.cookieKey(), k, slot, idx) != cookie&cookieHashMask {
		return 0, false
	}
	return cookieMSSTable[idx], true
}

// sendSynCookie answers a SYN with a stateless cookie SYN|ACK.
func (e *Engine) sendSynCookie(k connKey, h *proto.TCPHeader) {
	peerMSS := ourMSS
	if h.Opts.MSS != 0 && int(h.Opts.MSS) < peerMSS {
		peerMSS = int(h.Opts.MSS)
	}
	e.stats.SynCookiesSent++
	var hdr proto.TCPHeader
	hdr.SrcPort, hdr.DstPort = k.localPort, k.remotePort
	hdr.Flags = proto.TCPSyn | proto.TCPAck
	hdr.Seq = e.encodeCookie(k, peerMSS, e.env.Now())
	hdr.Ack = h.Seq + 1
	hdr.Opts.MSS = ourMSS
	// No window-scale offer: there is no PCB to remember it in.
	w := e.cfg.recvBuf
	if w > 0xffff {
		w = 0xffff
	}
	hdr.Window = uint16(w)
	e.stats.SegsOut++
	e.env.SendSegment(nil, OutSegment{
		Src: k.localAddr, Dst: k.remoteAddr, Hdr: hdr, MSS: ourMSS,
	})
}

// completeCookie materializes a connection from an ACK that carries a valid
// cookie. Returns true when the segment was consumed (valid cookie, or a
// validated-but-capped one); false lets the caller fall through to the
// closed-port path. Invalid cookies are swallowed silently — answering a
// flood of forged ACKs with RSTs would just be amplification.
func (e *Engine) completeCookie(l *Listener, k connKey, h *proto.TCPHeader, payload []byte) bool {
	mss, ok := e.checkCookie(k, e.env.Now(), h.Ack-1)
	if !ok {
		e.stats.SynCookiesRejected++
		return true
	}
	if len(l.acceptQ) >= l.backlog {
		return true
	}
	e.stats.SynCookiesValidated++
	c := e.newConn(k)
	c.Listener = l
	c.lastActivity = e.env.Now()
	cookie := h.Ack - 1
	c.iss = cookie
	c.irs = h.Seq - 1
	c.rcv.nxt = h.Seq
	c.snd.una = h.Ack
	c.snd.nxt = h.Ack
	c.mss = int32(mss)
	// Neither direction scales: the SYN|ACK offered no window scale.
	c.rcv.wndShift, c.snd.wndShift = 0, 0
	c.snd.cwnd = uint32(initialCwndMSS * c.mss)
	c.snd.wnd = uint32(h.Window)
	c.rto = initialRTO
	c.state = StateEstablished
	e.stats.AcceptedConns++
	l.acceptQ = append(l.acceptQ, c)
	e.env.Accepted(c)
	e.armGuard(c)
	// Data or FIN riding the completing ACK goes through the normal path.
	if len(payload) > 0 || h.Flags&proto.TCPFin != 0 {
		c.input(h, payload)
	}
	return true
}
