package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"neat/internal/bufpool"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xaa}
	macB = MAC{0x02, 0, 0, 0, 0, 0xbb}
	ipA  = IPv4(10, 0, 0, 1)
	ipB  = IPv4(10, 0, 0, 2)
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Canonical example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	// Odd final byte is padded with zero: words 0x0102, 0x0300.
	want := ^uint16(0x0102 + 0x0300)
	if got := Checksum(b, 0); got != want {
		t.Fatalf("checksum = %#04x, want %#04x", got, want)
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	// Property: embedding the computed checksum makes verification yield 0.
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		buf := append([]byte(nil), data...)
		buf[0], buf[1] = 0, 0
		ck := Checksum(buf, 0)
		binary.BigEndian.PutUint16(buf[0:2], ck)
		return Checksum(buf, 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4}
	b := h.Marshal(nil)
	b = append(b, 1, 2, 3)
	var g EthernetHeader
	payload, err := g.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
	if !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("payload %v", payload)
	}
	if _, err := g.Unmarshal(b[:10]); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARPPacket{Op: ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB}
	b := a.Marshal(nil)
	if len(b) != ARPPacketLen {
		t.Fatalf("len=%d", len(b))
	}
	var g ARPPacket
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g != a {
		t.Fatalf("round trip: got %+v want %+v", g, a)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{TOS: 0, TotalLen: IPv4HeaderLen + 4, ID: 77, Flags: IPFlagDF, TTL: 64, Protocol: ProtoTCP, Src: ipA, Dst: ipB}
	b := h.Marshal(nil)
	b = append(b, 9, 9, 9, 9)
	var g IPv4Header
	payload, err := g.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Src != h.Src || g.Dst != h.Dst || g.ID != h.ID || g.Protocol != h.Protocol || g.Flags != IPFlagDF {
		t.Fatalf("round trip: got %+v", g)
	}
	if len(payload) != 4 {
		t.Fatalf("payload len=%d", len(payload))
	}
}

func TestIPv4CorruptionDetected(t *testing.T) {
	h := IPv4Header{TotalLen: IPv4HeaderLen, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB}
	b := h.Marshal(nil)
	b[8] ^= 0xff // corrupt TTL
	var g IPv4Header
	if _, err := g.Unmarshal(b); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestUDPRoundTripAndChecksum(t *testing.T) {
	payload := []byte("hello udp")
	h := UDPHeader{SrcPort: 1234, DstPort: 53}
	b := h.Marshal(nil, ipA, ipB, payload)
	var g UDPHeader
	got, err := g.Unmarshal(b, ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	if g.SrcPort != 1234 || g.DstPort != 53 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %+v %q", g, got)
	}
	// Wrong pseudo-header (different dst IP) must fail.
	if _, err := g.Unmarshal(b, ipA, IPv4(10, 0, 0, 3)); err == nil {
		t.Fatal("UDP checksum ignored pseudo-header")
	}
	// Payload corruption must fail.
	b[len(b)-1] ^= 0x01
	if _, err := g.Unmarshal(b, ipA, ipB); err == nil {
		t.Fatal("corrupted UDP payload accepted")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	h := ICMPEcho{Type: ICMPEchoRequest, Ident: 7, Seq: 3}
	b := h.Marshal(nil, []byte("ping"))
	var g ICMPEcho
	payload, err := g.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != ICMPEchoRequest || g.Ident != 7 || g.Seq != 3 || string(payload) != "ping" {
		t.Fatalf("round trip: %+v %q", g, payload)
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	h := TCPHeader{
		SrcPort: 40000, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x12345678,
		Flags: TCPSyn | TCPAck, Window: 65535,
		Opts: TCPOptions{MSS: 1460, WScale: 7, HasWScale: true},
	}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	b := h.Marshal(nil, ipA, ipB, payload)
	var g TCPHeader
	got, err := g.Unmarshal(b, ipA, ipB)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seq != h.Seq || g.Ack != h.Ack || g.Flags != h.Flags || g.Window != h.Window {
		t.Fatalf("fields: %+v", g)
	}
	if g.Opts.MSS != 1460 || !g.Opts.HasWScale || g.Opts.WScale != 7 {
		t.Fatalf("options: %+v", g.Opts)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

func TestTCPChecksumCoversPayloadAndPseudoHeader(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck}
	b := h.Marshal(nil, ipA, ipB, []byte("data"))
	var g TCPHeader
	b[len(b)-1] ^= 0x40
	if _, err := g.Unmarshal(b, ipA, ipB); err == nil {
		t.Fatal("corrupted TCP payload accepted")
	}
	b[len(b)-1] ^= 0x40
	// Note: swapping src/dst would NOT change the (commutative) checksum;
	// a genuinely different address must.
	if _, err := g.Unmarshal(b, ipA, IPv4(10, 0, 9, 9)); err == nil {
		t.Fatal("TCP checksum ignored pseudo-header")
	}
}

func TestTCPRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		h := TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: win}
		b := h.Marshal(nil, ipA, ipB, payload)
		var g TCPHeader
		got, err := g.Unmarshal(b, ipA, ipB)
		if err != nil {
			return false
		}
		return g.SrcPort == srcPort && g.DstPort == dstPort && g.Seq == seq &&
			g.Ack == ack && g.Flags == flags && g.Window == win && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceArithmetic(t *testing.T) {
	if !SeqLT(0xffffffff, 1) {
		t.Fatal("wraparound LT failed")
	}
	if !SeqGT(1, 0xffffffff) {
		t.Fatal("wraparound GT failed")
	}
	if !SeqLEQ(5, 5) || !SeqGEQ(5, 5) {
		t.Fatal("equality comparisons failed")
	}
	if !SeqGT(2, 0xfffffffe) {
		t.Fatal("SeqGT across wrap failed")
	}
}

func TestFlowHashStableAndReverse(t *testing.T) {
	fl := Flow{Src: ipA, Dst: ipB, SrcPort: 5555, DstPort: 80, Proto: ProtoTCP}
	if fl.Hash() != fl.Hash() {
		t.Fatal("hash unstable")
	}
	r := fl.Reverse()
	if r.Src != ipB || r.DstPort != 5555 {
		t.Fatalf("reverse: %+v", r)
	}
	if r.Reverse() != fl {
		t.Fatal("double reverse != identity")
	}
}

func TestFlowHashDispersionProperty(t *testing.T) {
	// Property: distinct source ports spread across 4 RSS buckets roughly
	// evenly (no bucket empty over 1024 flows).
	counts := [4]int{}
	for p := 0; p < 1024; p++ {
		fl := Flow{Src: ipA, Dst: ipB, SrcPort: uint16(10000 + p), DstPort: 80, Proto: ProtoTCP}
		counts[fl.Hash()%4]++
	}
	for i, c := range counts {
		if c < 128 {
			t.Fatalf("bucket %d starved: %v", i, counts)
		}
	}
}

func TestDecodeFrameTCP(t *testing.T) {
	raw := BuildTCP(
		EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4},
		IPv4Header{TTL: 64, Src: ipA, Dst: ipB, ID: 42},
		TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 7, Flags: TCPSyn, Window: 100, Opts: TCPOptions{MSS: 1460}},
		nil,
	)
	f, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP == nil || f.TCP.SrcPort != 1000 || f.TCP.Opts.MSS != 1460 {
		t.Fatalf("tcp layer: %+v", f.TCP)
	}
	fl, ok := f.Flow()
	if !ok || fl.Proto != ProtoTCP || fl.SrcPort != 1000 || fl.Dst != ipB {
		t.Fatalf("flow: %+v ok=%v", fl, ok)
	}
}

// TestBuildTCPRoundTripZeroAlloc: a BuildTCP frame is a pooled buffer, so
// once the pools are warm building, decoding and releasing one allocates
// nothing — the frame comes back through Release.
func TestBuildTCPRoundTripZeroAlloc(t *testing.T) {
	if bufpool.RaceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	payload := make([]byte, 1460)
	var seq uint32
	roundTrip := func() {
		seq++
		raw := BuildTCP(EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4},
			IPv4Header{TTL: 64, Src: ipA, Dst: ipB},
			TCPHeader{SrcPort: 1000, DstPort: 80, Seq: seq, Flags: TCPAck, Window: 100}, payload)
		f, err := DecodeFrame(raw)
		if err != nil || f.TCP.Seq != seq || len(f.Payload) != len(payload) {
			t.Fatalf("round trip: %v", err)
		}
		f.Release()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("a warm BuildTCP/DecodeFrame/Release round trip allocates %.1f times", allocs)
	}
}

func TestDecodeFrameUDPAndICMPAndARP(t *testing.T) {
	udpRaw := BuildUDP(EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4},
		IPv4Header{TTL: 64, Src: ipA, Dst: ipB}, UDPHeader{SrcPort: 9, DstPort: 10}, []byte("u"))
	f, err := DecodeFrame(udpRaw)
	if err != nil || f.UDP == nil || string(f.Payload) != "u" {
		t.Fatalf("udp decode: %v %+v", err, f)
	}

	icmpRaw := BuildICMP(EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4},
		IPv4Header{TTL: 64, Src: ipA, Dst: ipB}, ICMPEcho{Type: ICMPEchoRequest, Ident: 1}, []byte("p"))
	f, err = DecodeFrame(icmpRaw)
	if err != nil || f.ICMP == nil || f.ICMP.Type != ICMPEchoRequest {
		t.Fatalf("icmp decode: %v %+v", err, f)
	}

	arpRaw := BuildARP(EthernetHeader{Dst: BroadcastMAC, Src: macA, Type: EtherTypeARP},
		ARPPacket{Op: ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB})
	f, err = DecodeFrame(arpRaw)
	if err != nil || f.ARP == nil || f.ARP.Op != ARPRequest {
		t.Fatalf("arp decode: %v %+v", err, f)
	}
	if _, ok := f.Flow(); ok {
		t.Fatal("ARP frame reported a transport flow")
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	eth := EthernetHeader{Dst: macB, Src: macA, Type: 0x1234}
	if _, err := DecodeFrame(eth.Marshal(nil)); err == nil {
		t.Fatal("unknown ethertype accepted")
	}
}

func TestDecodeFragmentStopsAtIP(t *testing.T) {
	ip := IPv4Header{TTL: 64, Src: ipA, Dst: ipB, Protocol: ProtoTCP, Flags: IPFlagMF, FragOff: 0, TotalLen: IPv4HeaderLen + 8}
	b := (&EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4}).Marshal(nil)
	b = ip.Marshal(b)
	b = append(b, 1, 2, 3, 4, 5, 6, 7, 8)
	f, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP != nil {
		t.Fatal("fragment decoded past IP layer")
	}
	if len(f.Payload) != 8 {
		t.Fatalf("fragment payload len=%d", len(f.Payload))
	}
}

func TestFlagString(t *testing.T) {
	if s := flagString(TCPSyn | TCPAck); s != "SA" {
		t.Fatalf("got %q", s)
	}
	if s := flagString(0); s != "." {
		t.Fatalf("got %q", s)
	}
}

func TestFlowReverseInvolutionProperty(t *testing.T) {
	f := func(a, b [4]byte, sp, dp uint16, pr uint8) bool {
		fl := Flow{Src: Addr(a), Dst: Addr(b), SrcPort: sp, DstPort: dp, Proto: IPProto(pr)}
		return fl.Reverse().Reverse() == fl && fl.Hash() == fl.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := UDPHeader{SrcPort: sp, DstPort: dp}
		b := h.Marshal(nil, ipA, ipB, payload)
		var g UDPHeader
		got, err := g.Unmarshal(b, ipA, ipB)
		return err == nil && g.SrcPort == sp && g.DstPort == dp && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		h := IPv4Header{TOS: tos, TotalLen: uint16(IPv4HeaderLen + len(payload)),
			ID: id, TTL: ttl, Protocol: ProtoUDP, Src: ipA, Dst: ipB}
		b := h.Marshal(nil)
		b = append(b, payload...)
		var g IPv4Header
		rest, err := g.Unmarshal(b)
		return err == nil && g.TOS == tos && g.ID == id && g.TTL == ttl &&
			g.Src == ipA && g.Dst == ipB && bytes.Equal(rest, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
