package proto

import (
	"fmt"
	"sync"

	"neat/internal/bufpool"
)

// Flow is the 5-tuple identifying one transport flow. It is the unit the
// NIC's flow-director filters and RSS hashing operate on (§4 of the paper):
// every packet of a flow must reach the same network stack replica.
type Flow struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            IPProto
}

// Reverse returns the flow seen from the other direction.
func (f Flow) Reverse() Flow {
	return Flow{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

// String formats the flow as proto src:port>dst:port.
func (f Flow) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Hash returns a fast non-cryptographic hash of the 5-tuple (FNV-1a over
// the tuple bytes), in the spirit of the i82599's RSS hash. It is
// direction-sensitive, like hardware RSS with a non-symmetric key; the NIC
// model hashes inbound packets only, so each inbound flow is stable.
func (f Flow) Hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	step := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	for _, b := range f.Src {
		step(b)
	}
	for _, b := range f.Dst {
		step(b)
	}
	step(byte(f.SrcPort >> 8))
	step(byte(f.SrcPort))
	step(byte(f.DstPort >> 8))
	step(byte(f.DstPort))
	step(byte(f.Proto))
	return h
}

// Frame is a fully decoded Ethernet frame as seen by the stack components.
// Only the layers present are populated; Payload is the innermost payload.
//
// Frames returned by DecodeFrame are pooled: the terminal consumer calls
// Release, after which the frame, its header pointers and its Raw/Payload
// slices must not be touched. Frames constructed by hand (struct literal,
// as tests do) are not pooled and Release is a no-op on them.
type Frame struct {
	Eth  EthernetHeader
	ARP  *ARPPacket
	IP   *IPv4Header
	TCP  *TCPHeader
	UDP  *UDPHeader
	ICMP *ICMPEcho
	// Payload is the transport payload (TCP/UDP data or ICMP echo data).
	Payload []byte
	// Raw is the complete frame as it appeared on the wire.
	Raw []byte

	// Inline header storage: DecodeFrame points the header fields above at
	// these so a decode performs no per-layer allocation.
	arpStore  ARPPacket
	ipStore   IPv4Header
	tcpStore  TCPHeader
	udpStore  UDPHeader
	icmpStore ICMPEcho
	pooled    bool
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Release returns a decoded frame to the frame pool and its Raw buffer to
// the buffer pool. Only the terminal consumer of a frame may call it;
// dropping a frame without Release is safe (it is garbage collected).
func (f *Frame) Release() {
	if f == nil || !f.pooled {
		return
	}
	raw := f.Raw
	*f = Frame{}
	framePool.Put(f)
	bufpool.Put(raw)
}

// Flow returns the frame's 5-tuple; ok is false for non-transport frames.
func (f *Frame) Flow() (Flow, bool) {
	if f.IP == nil {
		return Flow{}, false
	}
	fl := Flow{Src: f.IP.Src, Dst: f.IP.Dst, Proto: f.IP.Protocol}
	switch {
	case f.TCP != nil:
		fl.SrcPort, fl.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case f.UDP != nil:
		fl.SrcPort, fl.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	default:
		return fl, true // ICMP: ports zero
	}
	return fl, true
}

// DecodeFrame parses raw bytes off the wire into a Frame, validating every
// checksum on the way in. IP fragments (FragOff != 0 or MF set) are decoded
// down to the IP layer only; reassembly is the IP component's job.
//
// The returned frame is pooled and takes ownership of raw; the terminal
// consumer must call Release. On error the caller keeps ownership of raw.
func DecodeFrame(raw []byte) (*Frame, error) {
	f := framePool.Get().(*Frame)
	*f = Frame{Raw: raw, pooled: true}
	rest, err := f.Eth.Unmarshal(raw)
	if err != nil {
		return nil, f.decodeFail(err)
	}
	switch f.Eth.Type {
	case EtherTypeARP:
		f.ARP = &f.arpStore
		if err := f.ARP.Unmarshal(rest); err != nil {
			return nil, f.decodeFail(err)
		}
		return f, nil
	case EtherTypeIPv4:
		f.IP = &f.ipStore
		rest, err = f.IP.Unmarshal(rest)
		if err != nil {
			return nil, f.decodeFail(err)
		}
	default:
		return nil, f.decodeFail(fmt.Errorf("%w: ethertype %#04x", ErrBadField, uint16(f.Eth.Type)))
	}
	if f.IP.FragOff != 0 || f.IP.Flags&IPFlagMF != 0 {
		f.Payload = rest // fragment: transport header may be incomplete
		return f, nil
	}
	switch f.IP.Protocol {
	case ProtoTCP:
		f.TCP = &f.tcpStore
		f.Payload, err = f.TCP.Unmarshal(rest, f.IP.Src, f.IP.Dst)
	case ProtoUDP:
		f.UDP = &f.udpStore
		f.Payload, err = f.UDP.Unmarshal(rest, f.IP.Src, f.IP.Dst)
	case ProtoICMP:
		f.ICMP = &f.icmpStore
		f.Payload, err = f.ICMP.Unmarshal(rest)
	default:
		f.Payload = rest
	}
	if err != nil {
		return nil, f.decodeFail(err)
	}
	return f, nil
}

// decodeFail recycles the frame shell (but not raw, which the caller still
// owns) and passes the error through.
func (f *Frame) decodeFail(err error) error {
	*f = Frame{}
	framePool.Put(f)
	return err
}

// WireSizeTCP returns the on-wire size of a TCP frame carrying payloadLen
// bytes, for sizing pooled build buffers.
func WireSizeTCP(tcp *TCPHeader, payloadLen int) int {
	return EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + tcp.optionsLen() + payloadLen
}

// AppendTCP serializes a complete Ethernet/IPv4/TCP frame, appending to b.
// Hot paths pass a pooled scratch (bufpool.Get(WireSizeTCP(...))[:0]) so the
// build allocates nothing.
func AppendTCP(b []byte, eth EthernetHeader, ip IPv4Header, tcp TCPHeader, payload []byte) []byte {
	ip.Protocol = ProtoTCP
	ip.TotalLen = uint16(IPv4HeaderLen + TCPHeaderLen + tcp.optionsLen() + len(payload))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	return tcp.Marshal(b, ip.Src, ip.Dst, payload)
}

// BuildTCP serializes a complete Ethernet/IPv4/TCP frame into a pooled
// buffer. Ownership passes to the caller like any bufpool buffer: handed on
// to DecodeFrame, it returns to the pool when the frame's terminal consumer
// calls Release.
func BuildTCP(eth EthernetHeader, ip IPv4Header, tcp TCPHeader, payload []byte) []byte {
	return AppendTCP(bufpool.Get(WireSizeTCP(&tcp, len(payload)))[:0], eth, ip, tcp, payload)
}

// appendUDP serializes a complete Ethernet/IPv4/UDP frame, appending to b.
func appendUDP(b []byte, eth EthernetHeader, ip IPv4Header, udp UDPHeader, payload []byte) []byte {
	ip.Protocol = ProtoUDP
	ip.TotalLen = uint16(IPv4HeaderLen + UDPHeaderLen + len(payload))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	return udp.Marshal(b, ip.Src, ip.Dst, payload)
}

// BuildUDP serializes a complete Ethernet/IPv4/UDP frame.
func BuildUDP(eth EthernetHeader, ip IPv4Header, udp UDPHeader, payload []byte) []byte {
	b := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen+len(payload))
	return appendUDP(b, eth, ip, udp, payload)
}

// appendICMP serializes a complete Ethernet/IPv4/ICMP echo frame, appending
// to b.
func appendICMP(b []byte, eth EthernetHeader, ip IPv4Header, icmp ICMPEcho, payload []byte) []byte {
	ip.Protocol = ProtoICMP
	ip.TotalLen = uint16(IPv4HeaderLen + ICMPHeaderLen + len(payload))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	return icmp.Marshal(b, payload)
}

// BuildICMP serializes a complete Ethernet/IPv4/ICMP echo frame.
func BuildICMP(eth EthernetHeader, ip IPv4Header, icmp ICMPEcho, payload []byte) []byte {
	b := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+ICMPHeaderLen+len(payload))
	return appendICMP(b, eth, ip, icmp, payload)
}

// appendARP serializes a complete Ethernet/ARP frame, appending to b.
func appendARP(b []byte, eth EthernetHeader, arp ARPPacket) []byte {
	b = eth.Marshal(b)
	return arp.Marshal(b)
}

// BuildARP serializes a complete Ethernet/ARP frame.
func BuildARP(eth EthernetHeader, arp ARPPacket) []byte {
	return appendARP(make([]byte, 0, EthernetHeaderLen+ARPPacketLen), eth, arp)
}
