package proto

import (
	"encoding/binary"
	"fmt"
)

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	tcpUrg uint8 = 1 << 5
)

// flagString renders TCP flags as a compact string like "SA" or "FPA".
func flagString(flags uint8) string {
	names := []struct {
		bit uint8
		ch  byte
	}{{TCPFin, 'F'}, {TCPSyn, 'S'}, {TCPRst, 'R'}, {TCPPsh, 'P'}, {TCPAck, 'A'}, {tcpUrg, 'U'}}
	out := make([]byte, 0, 6)
	for _, n := range names {
		if flags&n.bit != 0 {
			out = append(out, n.ch)
		}
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP option kinds supported by the stack.
const (
	tcpOptEnd    uint8 = 0
	tcpOptNop    uint8 = 1
	tcpOptMSS    uint8 = 2
	tcpOptWScale uint8 = 3
)

// TCPOptions carries the negotiable TCP options the stack understands.
type TCPOptions struct {
	MSS       uint16 // 0 = absent
	WScale    uint8  // window scale shift; valid if HasWScale
	HasWScale bool
}

// TCPHeader is a TCP segment header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Opts             TCPOptions
}

// optionsLen returns the encoded, padded options length.
func (h *TCPHeader) optionsLen() int {
	n := 0
	if h.Opts.MSS != 0 {
		n += 4
	}
	if h.Opts.HasWScale {
		n += 3
	}
	return (n + 3) &^ 3 // pad to 4-byte boundary
}

// EncodedLen returns the marshalled size of the header (with options) plus
// payloadLen bytes of data, for sizing pooled scratch buffers.
func (h *TCPHeader) EncodedLen(payloadLen int) int {
	return TCPHeaderLen + h.optionsLen() + payloadLen
}

// Marshal appends header+payload with the pseudo-header checksum computed.
func (h *TCPHeader) Marshal(b []byte, src, dst Addr, payload []byte) []byte {
	start := len(b)
	optLen := h.optionsLen()
	dataOff := (TCPHeaderLen + optLen) / 4
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint32(b, h.Seq)
	b = binary.BigEndian.AppendUint32(b, h.Ack)
	b = append(b, uint8(dataOff)<<4, h.Flags)
	b = binary.BigEndian.AppendUint16(b, h.Window)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum placeholder
	b = binary.BigEndian.AppendUint16(b, h.Urgent)
	// Options.
	optStart := len(b)
	if h.Opts.MSS != 0 {
		b = append(b, tcpOptMSS, 4)
		b = binary.BigEndian.AppendUint16(b, h.Opts.MSS)
	}
	if h.Opts.HasWScale {
		b = append(b, tcpOptWScale, 3, h.Opts.WScale)
	}
	for len(b)-optStart < optLen {
		b = append(b, tcpOptNop)
	}
	b = append(b, payload...)
	segLen := uint16(TCPHeaderLen + optLen + len(payload))
	ck := Checksum(b[start:], pseudoHeaderSum(src, dst, ProtoTCP, segLen))
	binary.BigEndian.PutUint16(b[start+16:], ck)
	h.Checksum = ck
	return b
}

// Unmarshal parses a TCP header, verifying the pseudo-header checksum, and
// returns the payload.
func (h *TCPHeader) Unmarshal(b []byte, src, dst Addr) ([]byte, error) {
	if len(b) < TCPHeaderLen {
		return nil, ErrTruncated
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(b) {
		return nil, ErrTruncated
	}
	if Checksum(b, pseudoHeaderSum(src, dst, ProtoTCP, uint16(len(b)))) != 0 {
		return nil, fmt.Errorf("%w: bad TCP checksum", ErrBadField)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	h.Opts = TCPOptions{}
	opts := b[TCPHeaderLen:dataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case tcpOptEnd:
			opts = nil
		case tcpOptNop:
			opts = opts[1:]
		case tcpOptMSS:
			if len(opts) < 4 || opts[1] != 4 {
				return nil, fmt.Errorf("%w: malformed MSS option", ErrBadField)
			}
			h.Opts.MSS = binary.BigEndian.Uint16(opts[2:4])
			opts = opts[4:]
		case tcpOptWScale:
			if len(opts) < 3 || opts[1] != 3 {
				return nil, fmt.Errorf("%w: malformed WScale option", ErrBadField)
			}
			h.Opts.WScale = opts[2]
			h.Opts.HasWScale = true
			opts = opts[3:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return nil, fmt.Errorf("%w: malformed TCP option %d", ErrBadField, opts[0])
			}
			opts = opts[opts[1]:]
		}
	}
	return b[dataOff:], nil
}

// SegmentTSO cuts a TSO super-segment into segments of at most mss payload
// bytes the way the NIC hardware does: every segment clones the prototype
// header with its own sequence number, and PSH and FIN ride only the last.
// An empty payload yields one bare segment; mss <= 0 selects the Ethernet
// default of 1460. emit must not keep seg.
func SegmentTSO(tcp TCPHeader, payload []byte, mss int, emit func(tcp TCPHeader, seg []byte)) {
	if mss <= 0 {
		mss = 1460
	}
	finalFlags := tcp.Flags
	for {
		seg := payload
		if len(seg) > mss {
			seg = seg[:mss]
		}
		payload = payload[len(seg):]
		tcp.Flags = finalFlags
		if len(payload) > 0 {
			tcp.Flags &^= TCPPsh | TCPFin
		}
		emit(tcp, seg)
		if len(payload) == 0 {
			return
		}
		tcp.Seq += uint32(len(seg))
	}
}

// String summarizes the segment for traces.
func (h *TCPHeader) String() string {
	return fmt.Sprintf("tcp %d>%d %s seq=%d ack=%d win=%d",
		h.SrcPort, h.DstPort, flagString(h.Flags), h.Seq, h.Ack, h.Window)
}

// SeqLT reports whether a < b in 32-bit sequence space (RFC 793 wraparound).
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports whether a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports whether a > b in sequence space.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports whether a >= b in sequence space.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
