// Package ipeng implements the IP component of a stack replica (§3.7,
// Fig. 3 of the paper): IPv4 input/output with routing to a directly
// attached subnet or a default gateway, ARP resolution with request
// queueing and retry, ICMP echo handling, fragmentation and reassembly,
// and loopback. Apart from the ARP cache and in-flight reassembly buffers
// the component is stateless (or "pseudo-stateless"), which is exactly why
// the paper can recover it transparently after a crash (§6.6): everything
// here can be recreated from configuration.
package ipeng

import (
	"fmt"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

// TSO describes a TCP segmentation-offload transmission: the IP component
// attaches IP and Ethernet headers and hands the NIC one descriptor.
// Payload is a pooled buffer whose ownership passes to the engine with
// OutputTSO: it goes on to Env.TransmitTSO, or is released here when the
// engine segments in software.
type TSO struct {
	TCP     proto.TCPHeader
	Dst     proto.Addr
	Payload []byte
	MSS     int
}

// Env is the world as seen by the IP component: frame transmission
// (towards the NIC driver), transport delivery (towards TCP/UDP), and
// timers.
type Env interface {
	// TransmitFrame hands a serialized Ethernet frame to the NIC driver.
	TransmitFrame(raw []byte)
	// TransmitTSO hands the driver a TSO descriptor with prebuilt headers;
	// payload is the descriptor's to release (NIC.SendTSO does).
	TransmitTSO(eth proto.EthernetHeader, ip proto.IPv4Header, tcp proto.TCPHeader, payload []byte, mss int)
	// DeliverTransport passes a complete (reassembled) packet up the stack.
	DeliverTransport(f *proto.Frame)
	// After schedules fn on the owning process after d.
	After(d sim.Time, fn func())
}

// Config configures an IP component. There is no gateway: only the
// directly attached subnet is reachable.
type Config struct {
	Addr proto.Addr
	Mask proto.Addr // e.g. 255.255.255.0
	MAC  proto.MAC
	// StaticARP seeds the ARP cache (the experiments use static entries;
	// dynamic resolution is exercised by tests).
	StaticARP map[proto.Addr]proto.MAC
}

const (
	// mtu is the link MTU (Ethernet).
	mtu = 1500
	// arpTimeout is the per-try ARP resolution timeout (3 tries).
	arpTimeout = 200 * sim.Millisecond
	// reassemblyTimeout discards incomplete fragment groups.
	reassemblyTimeout = sim.Second
)

// Stats counts IP component events.
type Stats struct {
	Loopback          uint64
	ARPRequestsSent   uint64
	ARPFailed         uint64
	FragmentsSent     uint64
	Reassembled       uint64
	ReassemblyExpired uint64
	NotForUs          uint64
	NoRoute           uint64
}

// Engine is the IP component state.
type Engine struct {
	env Env
	cfg Config

	arp     map[proto.Addr]proto.MAC
	arpWait map[proto.Addr]*arpPending
	ipID    uint16
	reasm   map[reasmKey]*reasmBuf
	stats   Stats
}

type arpPending struct {
	frames [][]byte // serialized frames awaiting the MAC (dst rewritten on resolve)
	tries  int
}

type reasmKey struct {
	src   proto.Addr
	id    uint16
	proto proto.IPProto
}

type reasmBuf struct {
	data     []byte
	have     map[uint16]bool // offsets received (8-byte units)
	total    int             // total length once last fragment seen, else -1
	received int
}

// NewEngine creates an IP component.
func NewEngine(env Env, cfg Config) *Engine {
	e := &Engine{
		env:     env,
		cfg:     cfg,
		arp:     make(map[proto.Addr]proto.MAC),
		arpWait: make(map[proto.Addr]*arpPending),
		reasm:   make(map[reasmKey]*reasmBuf),
	}
	for ip, mac := range cfg.StaticARP {
		e.arp[ip] = mac
	}
	return e
}

// Addr returns the component's IP address.
func (e *Engine) Addr() proto.Addr { return e.cfg.Addr }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// sameSubnet reports whether dst is on the directly attached network.
func (e *Engine) sameSubnet(dst proto.Addr) bool {
	m := e.cfg.Mask.Uint32()
	return e.cfg.Addr.Uint32()&m == dst.Uint32()&m
}

// nextHop picks the L2 destination for dst: dst itself when it is on the
// attached subnet.
func (e *Engine) nextHop(dst proto.Addr) (proto.Addr, bool) {
	if e.sameSubnet(dst) || e.cfg.Mask == (proto.Addr{}) {
		return dst, true
	}
	return proto.Addr{}, false
}

// Output transmits a transport payload to dst, handling loopback, routing,
// ARP and fragmentation. transport is the serialized transport header +
// data (e.g. a marshalled TCP segment).
func (e *Engine) Output(dst proto.Addr, p proto.IPProto, transport []byte) {
	if dst == e.cfg.Addr {
		e.loopback(dst, p, transport)
		return
	}
	e.ipID++
	id := e.ipID
	if len(transport)+proto.IPv4HeaderLen <= mtu {
		ip := proto.IPv4Header{
			TotalLen: uint16(proto.IPv4HeaderLen + len(transport)),
			ID:       id, Flags: proto.IPFlagDF, TTL: 64,
			Protocol: p, Src: e.cfg.Addr, Dst: dst,
		}
		e.sendIP(dst, ip, transport)
		return
	}
	// Fragment: payload chunks in multiples of 8 bytes.
	chunk := (mtu - proto.IPv4HeaderLen) &^ 7
	off := 0
	for off < len(transport) {
		n := chunk
		last := false
		if off+n >= len(transport) {
			n = len(transport) - off
			last = true
		}
		flags := uint16(0)
		if !last {
			flags = proto.IPFlagMF
		}
		ip := proto.IPv4Header{
			TotalLen: uint16(proto.IPv4HeaderLen + n),
			ID:       id, Flags: flags, FragOff: uint16(off / 8),
			TTL: 64, Protocol: p, Src: e.cfg.Addr, Dst: dst,
		}
		e.stats.FragmentsSent++
		e.sendIP(dst, ip, transport[off:off+n])
		off += n
	}
}

// OutputFrame transmits a transport segment that the caller marshalled at
// proto.TxHeadroom into frame (a pooled buffer): the Ethernet and IPv4
// headers are written into the reserved headroom in place and the buffer
// goes to the driver without copying the segment. Ownership of frame passes
// to the engine with the call. Paths that cannot fill in place — loopback
// and fragmentation — delegate to Output on the transport view (which
// copies) and release the buffer; the delegation happens before this
// packet's IP ID is drawn, so ID sequencing matches Output exactly.
func (e *Engine) OutputFrame(dst proto.Addr, p proto.IPProto, frame []byte) {
	transport := frame[proto.TxHeadroom:]
	if dst == e.cfg.Addr || len(transport)+proto.IPv4HeaderLen > mtu {
		e.Output(dst, p, transport)
		bufpool.Put(frame)
		return
	}
	e.ipID++
	ip := proto.IPv4Header{
		TotalLen: uint16(proto.IPv4HeaderLen + len(transport)),
		ID:       e.ipID, Flags: proto.IPFlagDF, TTL: 64,
		Protocol: p, Src: e.cfg.Addr, Dst: dst,
	}
	e.sendIPFrame(dst, ip, frame)
}

// sendIPFrame is sendIP for a prebuilt headroom frame: the headers fill
// the reserved bytes via capacity-bounded appends instead of the segment
// being copied behind freshly marshalled headers.
func (e *Engine) sendIPFrame(dst proto.Addr, ip proto.IPv4Header, frame []byte) {
	hop, ok := e.nextHop(dst)
	if !ok {
		e.stats.NoRoute++
		bufpool.Put(frame)
		return
	}
	mac, resolved := e.arp[hop]
	// With an unresolved hop, mac stays the zero placeholder — the same
	// bytes sendIP queues — and inputARP rewrites frame[0:6] on resolution.
	eth := proto.EthernetHeader{Dst: mac, Src: e.cfg.MAC, Type: proto.EtherTypeIPv4}
	eth.Marshal(frame[:0:proto.EthernetHeaderLen])
	ip.Marshal(frame[proto.EthernetHeaderLen:proto.EthernetHeaderLen:proto.TxHeadroom])
	if resolved {
		e.env.TransmitFrame(frame)
		return
	}
	pend, waiting := e.arpWait[hop]
	if !waiting {
		pend = &arpPending{}
		e.arpWait[hop] = pend
		e.sendARPRequest(hop)
		e.armARPRetry(hop)
	}
	if len(pend.frames) < 64 {
		pend.frames = append(pend.frames, frame)
	} else {
		bufpool.Put(frame)
	}
}

// OutputTSO transmits a TCP super-segment via NIC segmentation offload.
func (e *Engine) OutputTSO(t TSO) {
	if t.Dst == e.cfg.Addr {
		e.softwareTSO(t) // loopback never reaches a NIC
		return
	}
	hop, ok := e.nextHop(t.Dst)
	if !ok {
		e.stats.NoRoute++
		bufpool.Put(t.Payload)
		return
	}
	mac, ok := e.arp[hop]
	if !ok {
		// TSO sends always follow established traffic; resolve first with
		// plain queued frames by falling back to non-TSO output.
		e.softwareTSO(t)
		return
	}
	e.ipID++
	eth := proto.EthernetHeader{Dst: mac, Src: e.cfg.MAC, Type: proto.EtherTypeIPv4}
	ip := proto.IPv4Header{ID: e.ipID, Flags: proto.IPFlagDF, TTL: 64,
		Protocol: proto.ProtoTCP, Src: e.cfg.Addr, Dst: t.Dst}
	e.env.TransmitTSO(eth, ip, t.TCP, t.Payload, t.MSS)
}

// softwareTSO segments a super-segment at MSS as the NIC would and sends
// every segment through Output (which loops back or queues behind ARP), then
// releases the payload. One datagram could not carry it: IPv4's TotalLen is
// 16 bits and the largest TSO payload (64 KiB) alone overflows it.
func (e *Engine) softwareTSO(t TSO) {
	proto.SegmentTSO(t.TCP, t.Payload, t.MSS, func(tcp proto.TCPHeader, seg []byte) {
		transport := tcp.Marshal(bufpool.Get(tcp.EncodedLen(len(seg)))[:0], e.cfg.Addr, t.Dst, seg)
		e.Output(t.Dst, proto.ProtoTCP, transport)
		bufpool.Put(transport)
	})
	bufpool.Put(t.Payload)
}

// loopback short-circuits packets addressed to ourselves (§3.3: each
// replica implements its own loopback). transport is copied, not retained.
func (e *Engine) loopback(dst proto.Addr, p proto.IPProto, transport []byte) {
	e.stats.Loopback++
	ip := proto.IPv4Header{
		TotalLen: uint16(proto.IPv4HeaderLen + len(transport)),
		TTL:      64, Protocol: p, Src: e.cfg.Addr, Dst: dst,
	}
	raw := bufpool.Get(proto.EthernetHeaderLen + int(ip.TotalLen))[:0]
	raw = (&proto.EthernetHeader{Dst: e.cfg.MAC, Src: e.cfg.MAC, Type: proto.EtherTypeIPv4}).Marshal(raw)
	raw = ip.Marshal(raw)
	raw = append(raw, transport...)
	f, err := proto.DecodeFrame(raw)
	if err != nil {
		bufpool.Put(raw)
		return
	}
	e.Input(f)
}

// sendIP resolves the next hop MAC and transmits, queueing behind ARP.
func (e *Engine) sendIP(dst proto.Addr, ip proto.IPv4Header, payload []byte) {
	hop, ok := e.nextHop(dst)
	if !ok {
		e.stats.NoRoute++
		return
	}
	if mac, ok := e.arp[hop]; ok {
		eth := proto.EthernetHeader{Dst: mac, Src: e.cfg.MAC, Type: proto.EtherTypeIPv4}
		raw := bufpool.Get(proto.EthernetHeaderLen + int(ip.TotalLen))[:0]
		raw = eth.Marshal(raw)
		raw = ip.Marshal(raw)
		raw = append(raw, payload...)
		e.env.TransmitFrame(raw)
		return
	}
	// Queue the frame with a placeholder MAC; rewrite on resolution.
	raw := bufpool.Get(proto.EthernetHeaderLen + int(ip.TotalLen))[:0]
	raw = (&proto.EthernetHeader{Src: e.cfg.MAC, Type: proto.EtherTypeIPv4}).Marshal(raw)
	raw = ip.Marshal(raw)
	raw = append(raw, payload...)
	pend, waiting := e.arpWait[hop]
	if !waiting {
		pend = &arpPending{}
		e.arpWait[hop] = pend
		e.sendARPRequest(hop)
		e.armARPRetry(hop)
	}
	if len(pend.frames) < 64 {
		pend.frames = append(pend.frames, raw)
	} else {
		bufpool.Put(raw)
	}
}

func (e *Engine) sendARPRequest(target proto.Addr) {
	e.stats.ARPRequestsSent++
	raw := proto.BuildARP(
		proto.EthernetHeader{Dst: proto.BroadcastMAC, Src: e.cfg.MAC, Type: proto.EtherTypeARP},
		proto.ARPPacket{Op: proto.ARPRequest, SenderMAC: e.cfg.MAC, SenderIP: e.cfg.Addr, TargetIP: target},
	)
	e.env.TransmitFrame(raw)
}

func (e *Engine) armARPRetry(target proto.Addr) {
	e.env.After(arpTimeout, func() {
		pend, ok := e.arpWait[target]
		if !ok {
			return // resolved
		}
		pend.tries++
		if pend.tries >= 3 {
			e.stats.ARPFailed++
			delete(e.arpWait, target)
			for i, raw := range pend.frames {
				bufpool.Put(raw)
				pend.frames[i] = nil
			}
			return
		}
		e.sendARPRequest(target)
		e.armARPRetry(target)
	})
}

// Input processes one inbound frame: ARP, ICMP, fragments, transport.
// Frames consumed here (ARP, fragments, echo requests, misaddressed) are
// released; only DeliverTransport hands ownership onward.
func (e *Engine) Input(f *proto.Frame) {
	if f.ARP != nil {
		e.inputARP(f.ARP)
		f.Release()
		return
	}
	if f.IP == nil {
		f.Release()
		return
	}
	if f.IP.Dst != e.cfg.Addr {
		e.stats.NotForUs++
		f.Release()
		return
	}
	if f.IP.FragOff != 0 || f.IP.Flags&proto.IPFlagMF != 0 {
		e.inputFragment(f)
		f.Release()
		return
	}
	if f.ICMP != nil {
		e.inputICMP(f)
		return
	}
	e.env.DeliverTransport(f)
}

func (e *Engine) inputARP(a *proto.ARPPacket) {
	// Learn the sender mapping either way.
	e.arp[a.SenderIP] = a.SenderMAC
	if pend, ok := e.arpWait[a.SenderIP]; ok {
		delete(e.arpWait, a.SenderIP)
		for _, raw := range pend.frames {
			copy(raw[0:6], a.SenderMAC[:]) // rewrite placeholder dst MAC
			e.env.TransmitFrame(raw)
		}
	}
	if a.Op == proto.ARPRequest && a.TargetIP == e.cfg.Addr {
		raw := proto.BuildARP(
			proto.EthernetHeader{Dst: a.SenderMAC, Src: e.cfg.MAC, Type: proto.EtherTypeARP},
			proto.ARPPacket{Op: proto.ARPReply, SenderMAC: e.cfg.MAC, SenderIP: e.cfg.Addr,
				TargetMAC: a.SenderMAC, TargetIP: a.SenderIP},
		)
		e.env.TransmitFrame(raw)
	}
}

func (e *Engine) inputICMP(f *proto.Frame) {
	if f.ICMP.Type != proto.ICMPEchoRequest {
		e.env.DeliverTransport(f) // echo replies etc. go to the owner (ping)
		return
	}
	reply := proto.ICMPEcho{Type: proto.ICMPEchoReply, Ident: f.ICMP.Ident, Seq: f.ICMP.Seq}
	body := reply.Marshal(bufpool.Get(proto.ICMPHeaderLen + len(f.Payload))[:0], f.Payload)
	e.Output(f.IP.Src, proto.ProtoICMP, body)
	bufpool.Put(body)
	f.Release()
}

// inputFragment buffers fragments and delivers the reassembled packet.
func (e *Engine) inputFragment(f *proto.Frame) {
	k := reasmKey{src: f.IP.Src, id: f.IP.ID, proto: f.IP.Protocol}
	b, ok := e.reasm[k]
	if !ok {
		b = &reasmBuf{have: make(map[uint16]bool), total: -1}
		e.reasm[k] = b
		e.env.After(reassemblyTimeout, func() {
			if cur, still := e.reasm[k]; still && cur == b {
				e.stats.ReassemblyExpired++
				delete(e.reasm, k)
			}
		})
	}
	off := int(f.IP.FragOff) * 8
	end := off + len(f.Payload)
	if end > len(b.data) {
		grown := make([]byte, end)
		copy(grown, b.data)
		b.data = grown
	}
	copy(b.data[off:end], f.Payload)
	if !b.have[f.IP.FragOff] {
		b.have[f.IP.FragOff] = true
		b.received += len(f.Payload)
	}
	if f.IP.Flags&proto.IPFlagMF == 0 {
		b.total = end
	}
	if b.total >= 0 && b.received >= b.total {
		delete(e.reasm, k)
		e.stats.Reassembled++
		e.deliverReassembled(f, b.data[:b.total])
	}
}

// deliverReassembled re-decodes the reassembled transport payload and
// delivers it as a normal frame.
func (e *Engine) deliverReassembled(last *proto.Frame, transport []byte) {
	ip := *last.IP
	ip.Flags, ip.FragOff = 0, 0
	ip.TotalLen = uint16(proto.IPv4HeaderLen + len(transport))
	raw := bufpool.Get(proto.EthernetHeaderLen + int(ip.TotalLen))[:0]
	raw = last.Eth.Marshal(raw)
	raw = ip.Marshal(raw)
	raw = append(raw, transport...)
	f, err := proto.DecodeFrame(raw)
	if err != nil {
		bufpool.Put(raw)
		return
	}
	if f.ICMP != nil {
		e.inputICMP(f)
		return
	}
	e.env.DeliverTransport(f)
}

// String describes the component configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("ip %s/%s mtu %d", e.cfg.Addr, e.cfg.Mask, mtu)
}
