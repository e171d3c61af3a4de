// Package proto implements the wire formats spoken on the simulated
// network: Ethernet, ARP, IPv4, ICMP, UDP and TCP. Packets are real bytes;
// every layer has Marshal/Unmarshal with full checksum support, so the
// stacks on both simulated machines interoperate through serialized frames
// exactly as physical hosts would.
//
// The layer/decoding style follows gopacket: fixed header structs with
// explicit field order, a DecodeFrame helper that peels layers, and a Flow
// 5-tuple with a fast symmetric-capable hash used for NIC RSS steering.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("proto: truncated packet")
	ErrBadField  = errors.New("proto: invalid header field")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the MAC in canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Addr is an IPv4 address.
type Addr [4]byte

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IPv4 builds an Addr from four octets.
func IPv4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// Uint32 returns the address as a big-endian integer.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Supported EtherTypes.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// IPProto identifies the payload protocol of an IPv4 packet.
type IPProto uint8

// Supported IP protocols.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names the protocol.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// EthernetHeaderLen is the length of an Ethernet II header (no VLAN, no FCS).
const EthernetHeaderLen = 14

// EthernetHeader is an Ethernet II frame header.
type EthernetHeader struct {
	Dst  MAC
	Src  MAC
	Type EtherType
}

// Marshal appends the wire encoding of h to b and returns the result.
func (h *EthernetHeader) Marshal(b []byte) []byte {
	b = append(b, h.Dst[:]...)
	b = append(b, h.Src[:]...)
	return binary.BigEndian.AppendUint16(b, uint16(h.Type))
}

// Unmarshal parses an Ethernet header from b, returning the payload.
func (h *EthernetHeader) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < EthernetHeaderLen {
		return nil, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.Type = EtherType(binary.BigEndian.Uint16(b[12:14]))
	return b[EthernetHeaderLen:], nil
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPPacketLen is the length of an IPv4-over-Ethernet ARP packet.
const ARPPacketLen = 28

// ARPPacket is an ARP request or reply for IPv4 over Ethernet.
type ARPPacket struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  Addr
	TargetMAC MAC
	TargetIP  Addr
}

// Marshal appends the wire encoding of a to b and returns the result.
func (a *ARPPacket) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1)      // HTYPE: Ethernet
	b = binary.BigEndian.AppendUint16(b, 0x0800) // PTYPE: IPv4
	b = append(b, 6, 4)                          // HLEN, PLEN
	b = binary.BigEndian.AppendUint16(b, a.Op)
	b = append(b, a.SenderMAC[:]...)
	b = append(b, a.SenderIP[:]...)
	b = append(b, a.TargetMAC[:]...)
	b = append(b, a.TargetIP[:]...)
	return b
}

// Unmarshal parses an ARP packet from b.
func (a *ARPPacket) Unmarshal(b []byte) error {
	if len(b) < ARPPacketLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || binary.BigEndian.Uint16(b[2:4]) != 0x0800 {
		return fmt.Errorf("%w: unsupported ARP hardware/protocol type", ErrBadField)
	}
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderMAC[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetMAC[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return nil
}

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// TxHeadroom is the room a transport layer reserves at the front of a TX
// frame buffer for the Ethernet and IPv4 headers (the skb-headroom idiom):
// the transport marshals its segment at offset TxHeadroom, and the IP layer
// fills the headers in place instead of copying the segment behind them.
const TxHeadroom = EthernetHeaderLen + IPv4HeaderLen

// IPv4 fragmentation flag bits (in the Flags/FragOff word).
const (
	IPFlagDF = 0x4000 // don't fragment
	IPFlagMF = 0x2000 // more fragments
)

// IPv4Header is an IPv4 header without options.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint16 // DF/MF bits only (mask 0x6000)
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Protocol IPProto
	Checksum uint16 // filled by Marshal
	Src, Dst Addr
}

// Marshal appends the wire encoding, computing the header checksum.
func (h *IPv4Header) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS)
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, (h.Flags&0x6000)|(h.FragOff&0x1fff))
	b = append(b, h.TTL, uint8(h.Protocol))
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	ck := Checksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+10:], ck)
	h.Checksum = ck
	return b
}

// Unmarshal parses an IPv4 header, verifying version and checksum, and
// returns the payload trimmed to TotalLen.
func (h *IPv4Header) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("%w: IP version %d", ErrBadField, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, ErrTruncated
	}
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("%w: bad IPv4 header checksum", ErrBadField)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = ff & 0x6000
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = IPProto(b[9])
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return nil, ErrTruncated
	}
	return b[ihl:h.TotalLen], nil
}

// ICMP types used by the stack.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMPHeaderLen is the length of an ICMP echo header.
const ICMPHeaderLen = 8

// ICMPEcho is an ICMP echo request/reply header.
type ICMPEcho struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Ident    uint16
	Seq      uint16
}

// Marshal appends header+payload with checksum computed over both.
func (h *ICMPEcho) Marshal(b, payload []byte) []byte {
	start := len(b)
	b = append(b, h.Type, h.Code, 0, 0)
	b = binary.BigEndian.AppendUint16(b, h.Ident)
	b = binary.BigEndian.AppendUint16(b, h.Seq)
	b = append(b, payload...)
	ck := Checksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+2:], ck)
	h.Checksum = ck
	return b
}

// Unmarshal parses an ICMP echo header, verifying the checksum, and returns
// the payload.
func (h *ICMPEcho) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < ICMPHeaderLen {
		return nil, ErrTruncated
	}
	if Checksum(b, 0) != 0 {
		return nil, fmt.Errorf("%w: bad ICMP checksum", ErrBadField)
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:4])
	h.Ident = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return b[ICMPHeaderLen:], nil
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Marshal appends header+payload with the pseudo-header checksum computed.
func (h *UDPHeader) Marshal(b []byte, src, dst Addr, payload []byte) []byte {
	start := len(b)
	h.Length = uint16(UDPHeaderLen + len(payload))
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = append(b, payload...)
	ck := Checksum(b[start:], pseudoHeaderSum(src, dst, ProtoUDP, h.Length))
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(b[start+6:], ck)
	h.Checksum = ck
	return b
}

// Unmarshal parses a UDP header, verifying the pseudo-header checksum, and
// returns the payload.
func (h *UDPHeader) Unmarshal(b []byte, src, dst Addr) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return nil, ErrTruncated
	}
	if h.Checksum != 0 {
		if Checksum(b[:h.Length], pseudoHeaderSum(src, dst, ProtoUDP, h.Length)) != 0 {
			return nil, fmt.Errorf("%w: bad UDP checksum", ErrBadField)
		}
	}
	return b[UDPHeaderLen:h.Length], nil
}

// Checksum computes the Internet checksum (RFC 1071) of b folded together
// with an initial partial sum. Verifying a buffer that embeds a correct
// checksum yields 0.
//
// The one's-complement sum does not depend on byte order (RFC 1071 §2(B)),
// so the bulk of b is summed as native 64-bit words with end-around carry,
// 32 bytes per iteration, and swapped to network order once; the tail of
// fewer than eight bytes and initial are added as big-endian 16-bit words.
func Checksum(b []byte, initial uint32) uint16 {
	var acc, carry uint64
	for len(b) >= 32 {
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b), carry)
		b = b[8:]
	}
	acc, carry = bits.Add64(acc, carry, 0)
	acc += carry
	acc = acc>>32 + acc&0xffffffff
	for acc>>16 != 0 {
		acc = acc>>16 + acc&0xffff
	}
	sum := uint64(initial) + uint64(bits.ReverseBytes16(uint16(acc)))
	for len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the partial checksum of the IPv4 pseudo-header
// used by TCP and UDP.
func pseudoHeaderSum(src, dst Addr, proto IPProto, length uint16) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
