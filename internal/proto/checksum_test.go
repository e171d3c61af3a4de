package proto

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checksumOracle is the two-bytes-per-iteration Internet checksum Checksum
// replaced: the reference every word-at-a-time result is compared against.
func checksumOracle(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// checkChecksum compares Checksum with the oracle on b and, when b has room
// for one, checks that a buffer carrying its own checksum verifies to 0.
func checkChecksum(t *testing.T, b []byte, initial uint32) {
	t.Helper()
	if got, want := Checksum(b, initial), checksumOracle(b, initial); got != want {
		t.Fatalf("len %d initial %#x: Checksum = %#04x, oracle %#04x", len(b), initial, got, want)
	}
	if len(b) < 2 {
		return
	}
	// The checksum field sits at an even offset of the summed bytes, as in
	// every header this package marshals.
	at := (len(b) / 2) &^ 1
	save := [2]byte{b[at], b[at+1]}
	b[at], b[at+1] = 0, 0
	binary.BigEndian.PutUint16(b[at:], Checksum(b, initial))
	if v := Checksum(b, initial); v != 0 {
		t.Fatalf("len %d initial %#x: buffer carrying its checksum verifies to %#04x", len(b), initial, v)
	}
	b[at], b[at+1] = save[0], save[1]
}

func TestChecksumMatchesBytePairOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 8 alignments of the first byte against the 64-bit loads, every length
	// across the 32-byte, 8-byte and byte-pair loops and past one MSS.
	const maxLen, aligns = 2049, 8
	backing := make([]byte, maxLen+aligns)
	fills := []func([]byte){
		func(b []byte) { clear(b) },
		func(b []byte) {
			for i := range b {
				b[i] = 0xff
			}
		},
		func(b []byte) { rng.Read(b) },
	}
	for _, fill := range fills {
		fill(backing)
		for align := 0; align < aligns; align++ {
			for n := 0; n <= maxLen; n++ {
				checkChecksum(t, backing[align:align+n], 0)
			}
		}
		// A pseudo-header-sized initial sum and one that fills the word.
		for _, initial := range []uint32{0x1_fffe, 0xffff_ffff} {
			for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 40, 1460, 1461, 1480} {
				checkChecksum(t, backing[1:1+n], initial)
			}
		}
	}
	big := make([]byte, 64<<10+3)
	for _, fill := range fills {
		fill(big)
		for _, n := range []int{64 << 10, 64<<10 - 1, 64<<10 + 1, 64<<10 + 3} {
			checkChecksum(t, big[:n], 0)
			checkChecksum(t, big[:n], 0x1_fffe)
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xffff_ffff))
	f.Add(make([]byte, 41), uint32(0x1_fffe))
	f.Fuzz(func(t *testing.T, in []byte, initial uint32) {
		b := append([]byte(nil), in...) // checkChecksum writes into its buffer
		checkChecksum(t, b, initial)
		if len(b) > 0 {
			checkChecksum(t, b[1:], initial) // the other alignment
		}
	})
}

// fuzzSeedFrames returns valid frames of every kind DecodeFrame peels.
func fuzzSeedFrames() [][]byte {
	eth := EthernetHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4}
	ip := IPv4Header{TTL: 64, Src: ipA, Dst: ipB}
	syn := TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: TCPSyn, Window: 65535,
		Opts: TCPOptions{MSS: 1460, HasWScale: true, WScale: 3}}
	data := TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 8, Ack: 1, Flags: TCPAck | TCPPsh, Window: 512}
	frag := ip
	frag.Protocol, frag.Flags, frag.TotalLen = ProtoUDP, IPFlagMF, IPv4HeaderLen+16
	fragRaw := frag.Marshal(eth.Marshal(nil))
	fragRaw = append(fragRaw, make([]byte, 16)...)
	return [][]byte{
		BuildTCP(eth, ip, syn, nil),
		BuildTCP(eth, ip, data, []byte("GET / HTTP/1.1\r\n\r\n")),
		BuildTCP(eth, ip, data, make([]byte, 1460)),
		BuildUDP(eth, ip, UDPHeader{SrcPort: 53, DstPort: 5353}, []byte("query")),
		BuildICMP(eth, ip, ICMPEcho{Type: ICMPEchoRequest, Ident: 1, Seq: 2}, []byte("ping")),
		BuildARP(EthernetHeader{Dst: BroadcastMAC, Src: macA, Type: EtherTypeARP},
			ARPPacket{Op: ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB}),
		fragRaw,
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to DecodeFrame: it must never
// panic, and whatever it accepts must re-verify against the byte-pair
// oracle — a frame the word-at-a-time checksum lets through and the
// reference rejects would be a corrupt segment delivered to an engine.
func FuzzDecodeFrame(f *testing.F) {
	for _, raw := range fuzzSeedFrames() {
		f.Add(raw)
		f.Add(raw[:len(raw)-1]) // truncated payload
		f.Add(raw[:len(raw)/2]) // truncated header
		f.Add(raw[:EthernetHeaderLen])
		bad := append([]byte(nil), raw...)
		bad[len(bad)-1] ^= 0x40 // payload no longer matches its checksum
		f.Add(bad)
		if len(raw) > EthernetHeaderLen+IPv4HeaderLen {
			bad = append([]byte(nil), raw...)
			bad[EthernetHeaderLen+10] ^= 0x01 // IPv4 header checksum
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := DecodeFrame(append([]byte(nil), raw...))
		if err != nil {
			return
		}
		defer fr.Release()
		if fr.IP == nil {
			if fr.ARP == nil {
				t.Fatal("decoded frame has neither an IP nor an ARP layer")
			}
			return
		}
		l3 := fr.Raw[EthernetHeaderLen:]
		ihl := int(l3[0]&0x0f) * 4
		if checksumOracle(l3[:ihl], 0) != 0 {
			t.Fatal("accepted an IPv4 header the oracle rejects")
		}
		transport := l3[ihl:fr.IP.TotalLen]
		switch {
		case fr.TCP != nil:
			if checksumOracle(transport, pseudoHeaderSum(fr.IP.Src, fr.IP.Dst, ProtoTCP, uint16(len(transport)))) != 0 {
				t.Fatal("accepted a TCP segment the oracle rejects")
			}
		case fr.UDP != nil && fr.UDP.Checksum != 0:
			dgram := transport[:fr.UDP.Length]
			if checksumOracle(dgram, pseudoHeaderSum(fr.IP.Src, fr.IP.Dst, ProtoUDP, fr.UDP.Length)) != 0 {
				t.Fatal("accepted a UDP datagram the oracle rejects")
			}
		case fr.ICMP != nil:
			if checksumOracle(transport, 0) != 0 {
				t.Fatal("accepted an ICMP message the oracle rejects")
			}
		}
		if len(fr.Payload) > len(transport) {
			t.Fatalf("payload of %d bytes out of a %d-byte transport", len(fr.Payload), len(transport))
		}
	})
}
