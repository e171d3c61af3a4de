package tcpeng

import (
	"bytes"
	"testing"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

// patterned returns n bytes no two MSS-sized windows of which are alike, so
// a segment delivered twice, dropped or read from a recycled or moved buffer
// shows up as a mismatch.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8*17 + i>>16)
	}
	return b
}

// TestPartialRecvKeepsStream reads a stream in pull mode with Recv(max)
// smaller than what is buffered, while more segments arrive behind the
// remainder, and returns every piece to the pool as soon as it is copied: a
// piece and the remainder it was cut from never share bytes, so this is
// legal and the stream stays intact.
func TestPartialRecvKeepsStream(t *testing.T) {
	h := newHarness(51)
	h.build(defCfg(), defCfg())
	h.b.autoRecv = false
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	want := patterned(60_000)
	var got []byte
	sizes := []int{1, 100, 1024, 1460, 5000, 0, 64, 2048, 333}
	sent := 0
	for i := 0; i < 200000 && len(got) < len(want); i++ {
		if sent < len(want) {
			sent += cli.Send(want[sent:])
		}
		more := h.step()
		if i%3 == 0 || !more {
			piece := srv.Recv(sizes[i/3%len(sizes)])
			got = append(got, piece...)
			bufpool.Put(piece)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("partial reads delivered %d of %d bytes, or not the bytes sent", len(got), len(want))
	}
	if len(srv.rcvBuf()) != 0 || srv.Recv(0) != nil {
		t.Fatal("drained connection still reports data")
	}
}

// sndOffset is how far c's live send bytes have slid into their array.
func sndOffset(c *Conn) int {
	if c.bufs == nil {
		return 0
	}
	return len(c.bufs.sndArr) - cap(c.bufs.snd)
}

// TestRetransmitAfterCompaction makes the send buffer move unacknowledged
// bytes to the front of its array and then loses segments, so that the
// retransmissions read the moved bytes; the stream must arrive intact, and
// the array must not have been replaced while its live bytes still fit.
func TestRetransmitAfterCompaction(t *testing.T) {
	h := newHarness(52)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	want := patterned(400_000)

	// 40 KB goes out; once 30 KB of it is acknowledged the 10 KB still
	// unacknowledged sits at the end of the array with no room behind it.
	const first, second = 40_000, 20_000
	cli.Send(want[:first])
	if !h.runUntil(func() bool { return sndOffset(cli) >= 30_000 }, sim.Second) {
		t.Fatalf("only %d of %d bytes acknowledged", sndOffset(cli), first)
	}
	live, arr := len(cli.bufs.snd), &cli.bufs.sndArr[0]
	if live == 0 || live+second > len(cli.bufs.sndArr) {
		t.Fatalf("%d live bytes in a %d-byte array: no compaction to provoke", live, len(cli.bufs.sndArr))
	}
	// From here on one data segment in three is lost, the unacknowledged
	// tail of the first write included.
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool {
		return from == h.a && len(f.Payload) > 0 && h.rng.Intn(3) == 0
	}
	if n := cli.Send(want[first : first+second]); n != second {
		t.Fatalf("Send accepted %d of %d bytes", n, second)
	}
	if sndOffset(cli) != 0 || &cli.bufs.sndArr[0] != arr {
		t.Fatalf("live bytes that fit the array were not compacted into it (offset %d, same array %v)",
			sndOffset(cli), &cli.bufs.sndArr[0] == arr)
	}
	if !bytes.Equal(cli.bufs.snd, want[first-live:first+second]) {
		t.Fatal("compaction changed the unacknowledged bytes")
	}
	compactions := 1
	sent := first + second
	for i := 0; i < 2_000_000 && len(h.b.recvData[srv]) < len(want); i++ {
		if sent < len(want) {
			off, full := sndOffset(cli), len(cli.bufs.snd)
			arr = &cli.bufs.sndArr[0]
			sent += cli.Send(want[sent:min(sent+7000, len(want))])
			if off > 0 && full > 0 && sndOffset(cli) == 0 && &cli.bufs.sndArr[0] == arr {
				compactions++
			}
		}
		if !h.step() && sent == len(want) {
			break
		}
	}
	if !bytes.Equal(h.b.recvData[srv], want) {
		t.Fatalf("received %d of %d bytes, or not the bytes sent", len(h.b.recvData[srv]), len(want))
	}
	if st := h.a.engine.Stats(); st.Retransmits == 0 || compactions < 2 {
		t.Fatalf("%d retransmissions, %d compactions: the test did not exercise what it is for", st.Retransmits, compactions)
	}
}

// TestSnapshotRestoreMidTransfer checkpoints a connection that holds unread
// received bytes and unacknowledged send bytes in both directions, restores
// it into a fresh engine and finishes the transfer: both streams must be
// intact, the restored buffers being the engine's own copies.
func TestSnapshotRestoreMidTransfer(t *testing.T) {
	h := newHarness(53)
	h.build(defCfg(), defCfg())
	h.b.autoRecv = false // the server application reads late
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	up, down := patterned(90_000), patterned(50_000)[7:]

	cli.Send(up)
	srv.Send(down)
	h.runUntil(func() bool { return len(srv.rcvBuf()) >= 30_000 }, sim.Second)
	gotUp := append([]byte(nil), srv.Recv(10_000)...) // a partial read before the checkpoint
	snap := h.b.engine.Snapshot()
	if len(snap.Conns) != 1 || len(snap.Conns[0].RcvBuf) == 0 || len(snap.Conns[0].SndBuf) == 0 {
		t.Fatalf("snapshot is not mid-transfer: %d conns", len(snap.Conns))
	}
	// Overwriting what the dead engine still holds must not reach the
	// snapshot: it owns copies.
	clear(srv.bufs.rcv)
	clear(srv.bufs.snd)

	fresh := swapEngineB(h, defCfg())
	restored := fresh.Restore(snap)
	if len(restored) != 1 || restored[0] == nil {
		t.Fatal("connection not restored")
	}
	srv = restored[0]
	for i := 0; i < 500000 && (len(gotUp) < len(up) || len(h.a.recvData[cli]) < len(down)); i++ {
		piece := srv.Recv(0)
		gotUp = append(gotUp, piece...)
		bufpool.Put(piece)
		if !h.step() {
			h.run(h.now + 50*sim.Millisecond) // idle until the next retransmission
		}
	}
	if !bytes.Equal(gotUp, up) {
		t.Fatalf("client to server: %d of %d bytes, or not the bytes sent", len(gotUp), len(up))
	}
	if !bytes.Equal(h.a.recvData[cli], down) {
		t.Fatalf("server to client: %d of %d bytes, or not the bytes sent", len(h.a.recvData[cli]), len(down))
	}
}

// TestReorderedSegmentsArePooled swaps every pair of segments of a bulk
// exchange, so that half of them wait in the out-of-order list: once the
// pools are warm the exchange allocates nothing, which it can only do if the
// held copies come from bufpool and go back when they are merged.
func TestReorderedSegmentsArePooled(t *testing.T) {
	if bufpool.RaceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := newPipe(t, DefaultConfig())
	p.swapPairs = true
	body := patterned(40 * 1460)
	p.srv.want = body
	exchange := func() {
		if n := p.cli.conn.Send(body); n != len(body) {
			t.Fatalf("Send accepted %d of %d bytes", n, len(body))
		}
		p.pump()
	}
	for i := 0; i < 4; i++ {
		exchange()
	}
	if st := p.srv.eng.Stats(); st.OutOfOrderIn == 0 {
		t.Fatal("no segment arrived out of order")
	}
	if allocs := testing.AllocsPerRun(20, exchange); allocs != 0 {
		t.Fatalf("a reordered %d-segment exchange allocates %.1f times", len(body)/1460, allocs)
	}
	if p.srv.got != 25*len(body) || p.srv.bad {
		t.Fatalf("server received %d of %d bytes, intact=%v", p.srv.got, 25*len(body), !p.srv.bad)
	}
}
