package tcpeng

import "neat/internal/proto"

// Checkpoint-based stateful recovery.
//
// The paper's NEaT uses stateless recovery: a crashed TCP component loses
// its connections (§3.6). §2.1 and §6.6 discuss the alternative the
// literature offers — checkpointing [CRIU, Giuffrida et al.] — noting it
// "typically incurs nontrivial run-time and recovery-time overhead ...
// trading off performance for reliability". This file implements that
// alternative so the trade-off can actually be measured (see the
// checkpoint ablation benchmark).
//
// Semantics: Snapshot captures every established (or half-closed)
// connection — sequence state, negotiated options and both buffers — plus
// the listener table. Restore rebuilds the PCBs in a fresh engine and
// marks all previously-sent-but-unacknowledged data as in flight again, so
// standard retransmission resynchronizes with the peer. Anything that
// happened after the snapshot is lost: data the replica ACKed to the peer
// after the snapshot cannot be recovered (the peer has discarded it), and
// such connections stall and die once maxRetries is exceeded. This
// output-commit problem is exactly why checkpointing TCP is hard; the
// interval controls the exposure window.

// ConnSnapshot is one connection's checkpointed state.
type ConnSnapshot struct {
	LocalAddr  proto.Addr
	LocalPort  uint16
	RemoteAddr proto.Addr
	RemotePort uint16

	State State // StateEstablished or StateCloseWait
	MSS   int

	SndUna      uint32
	SndWnd      uint32
	SndWndShift uint8
	RcvNxt      uint32
	RcvWndShift uint8

	SndBuf []byte // unacknowledged + unsent bytes (seq of [0] = SndUna)
	RcvBuf []byte // received, not yet consumed by the socket layer

	// ConnID preserves the socket-layer handle across the restore.
	ConnID uint64
	// Ctx carries the socket bookkeeping (opaque to the engine).
	Ctx interface{}
}

// ListenerSnapshot is one listening socket's checkpointed state.
type ListenerSnapshot struct {
	Addr    proto.Addr
	Port    uint16
	Backlog int
	Ctx     interface{}
}

// Snapshot is a consistent engine checkpoint.
type Snapshot struct {
	Conns     []ConnSnapshot
	Listeners []ListenerSnapshot
}

// Snapshot captures the engine's recoverable state. Connections in
// transient states (handshakes, closing exchanges, TIME_WAIT) are skipped:
// they either re-establish on retransmission or are already past
// app-visible life.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{}
	e.conns.all(func(c *Conn) {
		if c.state != StateEstablished && c.state != StateCloseWait {
			return
		}
		s.Conns = append(s.Conns, ConnSnapshot{
			LocalAddr: c.key.localAddr, LocalPort: c.key.localPort,
			RemoteAddr: c.key.remoteAddr, RemotePort: c.key.remotePort,
			State: c.state, MSS: int(c.mss),
			SndUna: c.snd.una, SndWnd: c.snd.wnd, SndWndShift: c.snd.wndShift,
			RcvNxt: c.rcv.nxt, RcvWndShift: c.rcv.wndShift,
			SndBuf: append([]byte(nil), c.sndBuf()...),
			RcvBuf: append([]byte(nil), c.rcvBuf()...),
			ConnID: c.ID,
			Ctx:    c.Ctx,
		})
	})
	for _, l := range e.listeners {
		s.Listeners = append(s.Listeners, ListenerSnapshot{
			Addr: l.key.addr, Port: l.key.port, Backlog: l.backlog, Ctx: l.Ctx,
		})
	}
	return s
}

// StateBytes estimates the checkpoint's size (buffer bytes + fixed PCB
// cost); the caller charges checkpointing cycles proportional to it. The
// 256 bytes per connection are the modeled cost of serializing one PCB, a
// constant of the checkpoint model: they are not sizeof(Conn), and changing
// them moves every checkpointing result.
func (s *Snapshot) StateBytes() int {
	n := 0
	for _, c := range s.Conns {
		n += len(c.SndBuf) + len(c.RcvBuf) + 256
	}
	return n
}

// Restore rebuilds the snapshot's listeners and connections in e (a fresh
// engine). Restored connections keep their ConnID and Ctx; all
// unacknowledged data is queued for retransmission. It returns the PCB
// built for each entry of s.Conns, index for index; an entry whose 4-tuple
// is already taken is skipped and left nil.
func (e *Engine) Restore(s *Snapshot) []*Conn {
	for _, ls := range s.Listeners {
		if l, err := e.Listen(ls.Addr, ls.Port, ls.Backlog); err == nil {
			l.Ctx = ls.Ctx
		}
	}
	restored := make([]*Conn, len(s.Conns))
	for i, cs := range s.Conns {
		k := connKey{localAddr: cs.LocalAddr, localPort: cs.LocalPort,
			remoteAddr: cs.RemoteAddr, remotePort: cs.RemotePort}
		if e.conns.get(k) != nil {
			continue
		}
		c := e.newConn(k)
		// Preserve the socket-layer identity.
		c.ID = cs.ConnID
		c.Ctx = cs.Ctx
		if cs.ConnID >= e.nextID {
			e.nextID = cs.ConnID + 1
		}
		c.state = cs.State
		c.mss = int32(cs.MSS)
		c.snd.una = cs.SndUna
		// Everything buffered counts as "sent": the peer may have seen any
		// prefix of it. Standard retransmission fills whatever is missing.
		c.snd.nxt = cs.SndUna + uint32(len(cs.SndBuf))
		c.snd.wnd = cs.SndWnd
		c.snd.wndShift = cs.SndWndShift
		c.snd.cwnd = uint32(initialCwndMSS * c.mss)
		c.rcv.nxt = cs.RcvNxt
		c.rcv.wndShift = cs.RcvWndShift
		if len(cs.SndBuf) > 0 {
			c.ensureBufs().appendSnd(cs.SndBuf)
		}
		if len(cs.RcvBuf) > 0 {
			c.ensureBufs().appendRcv(cs.RcvBuf)
		}
		c.rto = initialRTO
		restored[i] = c
		// Kick resynchronization: if data is outstanding, the RTO will
		// retransmit from SndUna; otherwise probe the peer with a bare ACK
		// so a diverged peer answers (and a healthy one ignores it).
		if c.snd.nxt != c.snd.una {
			c.armRexmit()
		}
		c.sendAck()
	}
	return restored
}
