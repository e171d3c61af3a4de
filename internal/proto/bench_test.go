package proto

import (
	"strconv"
	"testing"

	"neat/internal/bufpool"
)

// BenchmarkProtoMarshal measures one hop of the pooled marshal/decode
// cycle: build a TCP frame into pooled scratch, decode it into a pooled
// Frame, release both. This is the per-packet byte-shuffling cost the
// simulator pays on every link crossing.
func BenchmarkProtoMarshal(b *testing.B) {
	b.ReportAllocs()
	eth := EthernetHeader{Src: MAC{1}, Dst: MAC{2}, Type: EtherTypeIPv4}
	ip := IPv4Header{Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2), TTL: 64}
	tcp := TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 1, Ack: 1, Flags: TCPAck, Window: 65535}
	payload := make([]byte, 1448)
	b.SetBytes(int64(WireSizeTCP(&tcp, len(payload))))
	for i := 0; i < b.N; i++ {
		raw := AppendTCP(bufpool.Get(WireSizeTCP(&tcp, len(payload)))[:0], eth, ip, tcp, payload)
		f, err := DecodeFrame(raw)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkChecksum measures the Internet checksum at the three sizes the
// packet path sums: a bare TCP/IP header, one MSS of payload, one TSO
// super-segment.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{40, 1460, 65536} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink += Checksum(buf, uint32(i))
			}
			checksumSink = sink
		})
	}
}

var checksumSink uint16
