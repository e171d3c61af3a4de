// Package udpeng implements the UDP component of a stack replica. The
// paper treats UDP as "fairly simple ... stateless" (§3.3): there is no
// connection state, only port bindings, which is why a crashed UDP
// component recovers transparently — bindings are re-created from the
// socket layer's records.
package udpeng

import (
	"errors"

	"neat/internal/bufpool"
	"neat/internal/proto"
)

// Env is the world as seen by the UDP component.
type Env interface {
	// Output transmits a serialized UDP datagram (header+payload) to dst
	// via the IP component.
	Output(dst proto.Addr, transport []byte)
	// Deliver passes a received datagram to the socket bound to s.
	Deliver(s *Socket, src proto.Addr, srcPort uint16, data []byte)
}

// Engine errors.
var (
	ErrPortInUse = errors.New("udpeng: port already bound")
	ErrClosed    = errors.New("udpeng: socket closed")
)

// Stats counts UDP events.
type Stats struct {
	NoSocket uint64
}

// Engine is one replica's UDP state: a port table.
type Engine struct {
	env       Env
	addr      proto.Addr
	binds     map[uint16]*Socket
	nextEphem uint16
	stats     Stats
}

// Socket is a bound UDP port.
type Socket struct {
	engine *Engine
	port   uint16
	closed bool
	// Ctx is opaque owner context.
	Ctx interface{}
}

// NewEngine creates a UDP component bound to the local address addr.
func NewEngine(env Env, addr proto.Addr) *Engine {
	return &Engine{env: env, addr: addr, binds: make(map[uint16]*Socket), nextEphem: 32768}
}

// Bind binds a socket to port; port 0 picks an ephemeral port.
func (e *Engine) Bind(port uint16) (*Socket, error) {
	if port == 0 {
		for tries := 0; tries < 65536-32768; tries++ {
			p := e.nextEphem
			e.nextEphem++
			if e.nextEphem == 0 {
				e.nextEphem = 32768
			}
			if p >= 32768 {
				if _, used := e.binds[p]; !used {
					port = p
					break
				}
			}
		}
		if port == 0 {
			return nil, ErrPortInUse
		}
	} else if _, used := e.binds[port]; used {
		return nil, ErrPortInUse
	}
	s := &Socket{engine: e, port: port}
	e.binds[port] = s
	return s, nil
}

// Port returns the bound port.
func (s *Socket) Port() uint16 { return s.port }

// Close releases the port.
func (s *Socket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.engine.binds, s.port)
}

// SendTo transmits a datagram to dst:port.
func (s *Socket) SendTo(dst proto.Addr, port uint16, data []byte) error {
	if s.closed {
		return ErrClosed
	}
	e := s.engine
	h := proto.UDPHeader{SrcPort: s.port, DstPort: port}
	// Output is synchronous (IP copies the datagram into the frame), so
	// the scratch buffer goes straight back to the pool.
	raw := h.Marshal(bufpool.Get(proto.UDPHeaderLen + len(data))[:0], e.addr, dst, data)
	e.env.Output(dst, raw)
	bufpool.Put(raw)
	return nil
}

// Input demultiplexes an inbound UDP frame.
func (e *Engine) Input(f *proto.Frame) {
	if f.UDP == nil || f.IP == nil {
		return
	}
	s, ok := e.binds[f.UDP.DstPort]
	if !ok {
		e.stats.NoSocket++
		return // a full stack would send ICMP port-unreachable
	}
	e.env.Deliver(s, f.IP.Src, f.UDP.SrcPort, f.Payload)
}
