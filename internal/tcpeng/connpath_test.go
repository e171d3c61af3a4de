package tcpeng

import (
	"bytes"
	"testing"
	"unsafe"

	"neat/internal/proto"
	"neat/internal/sim"
)

// Ownership tests of the connection path: the accept queue keeps its array,
// Listener.Close resets everything it held, and a buffer block returns to the
// pool when its connection enters TIME_WAIT with nothing in it.

// TestConnSize pins the PCB inside Go's 288-byte size class: conn-scale beds
// keep two PCBs resident per established connection, so every size class
// the struct climbs costs 32 bytes or more per connection end. DESIGN.md §15
// has the byte budget.
func TestConnSize(t *testing.T) {
	n := unsafe.Sizeof(Conn{})
	class := n
	for _, c := range []uintptr{256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768} {
		if n <= c {
			class = c
			break
		}
	}
	t.Logf("Conn is %d bytes, size class %d", n, class)
	if n > 288 {
		t.Fatalf("Conn is %d bytes (size class %d), budget 288", n, class)
	}
}

// TestPCBPoolCycleZeroAlloc gates the PCB pool's own memory: parking a PCB
// allocates nothing, however many are parked at once. Each run removes
// 1,025 connections from an engine whose pool is still empty, so the free
// list passes 1,024 PCBs for the first time, then opens as many again from
// the pool, into the connection table that grew to hold them the first
// time, and looks each one up. (A slice-backed pool regrows here, and in
// every conn_scale window, to the most PCBs ever parked.)
func TestPCBPoolCycleZeroAlloc(t *testing.T) {
	const conns, runs = 1025, 3
	keys := make([]connKey, conns)
	for i := range keys {
		keys[i] = connKey{localAddr: proto.IPv4(10, 0, 0, 1), localPort: 80,
			remoteAddr: proto.IPv4(10, 0, 0, 2), remotePort: uint16(1024 + i)}
	}
	// One engine per run, plus one for AllocsPerRun's warm-up call.
	engines := make([]*Engine, runs+1)
	live := make([][]*Conn, len(engines))
	for i := range engines {
		engines[i] = NewEngine(&pipeEnv{}, proto.IPv4(10, 0, 0, 1), DefaultConfig())
		live[i] = make([]*Conn, conns)
		for j, k := range keys {
			live[i][j] = engines[i].newConn(k)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e, cs := engines[next], live[next]
		next++
		for _, c := range cs {
			e.remove(c)
		}
		for j, k := range keys {
			cs[j] = e.newConn(k)
		}
		for j, k := range keys {
			if e.conns.get(k) != cs[j] {
				t.Fatalf("lookup of reopened PCB %d missed", j)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a remove → newConn → lookup cycle of %d PCBs allocates %v times, want 0", conns, allocs)
	}
	for _, e := range engines {
		if ps := e.PoolStats(); ps.Reused != conns || ps.FreeConns != 0 || ps.LiveHot != conns {
			t.Fatalf("pool after the cycle: %+v, want all %d PCBs reused and live", ps, conns)
		}
	}
}

// TestListenerCloseResetsEveryQueued closes a listener whose host never
// accepts, with 1…5 established connections queued: each one must be reset
// and removed on both ends. (Close used to range over the queue while each
// Abort shifted it down under the loop: with three to five queued, one or
// two were skipped and stayed established in no queue, their clients
// believing they were connected.)
func TestListenerCloseResetsEveryQueued(t *testing.T) {
	for n := 1; n <= 5; n++ {
		h := newHarness(60 + int64(n))
		h.build(defCfg(), defCfg())
		l, _ := h.b.engine.Listen(proto.Addr{}, 80, 16)
		var clis []*Conn
		for i := 0; i < n; i++ {
			cli, srv := h.connectPair(80)
			if srv == nil {
				t.Fatalf("n=%d: connection %d not established", n, i)
			}
			clis = append(clis, cli)
		}
		if len(l.acceptQ) != n {
			t.Fatalf("n=%d: %d connections queued", n, len(l.acceptQ))
		}
		l.Close()
		h.run(h.now + 10*sim.Millisecond)
		if got := h.b.engine.Stats().ResetsOut; got != uint64(n) {
			t.Errorf("n=%d: Close reset %d queued connections", n, got)
		}
		if left := h.b.engine.NumConns(); left != 0 {
			t.Errorf("n=%d: %d server connections survive Close", n, left)
		}
		for i, c := range clis {
			if c.State() != StateClosed || !h.a.resets[c] {
				t.Errorf("n=%d: client %d is %v, reset %v", n, i, c.State(), h.a.resets[c])
			}
		}
	}
}

// TestAcceptOneAtATimeReusesQueue: a host that accepts every connection as it
// is queued appends into one array forever.
func TestAcceptOneAtATimeReusesQueue(t *testing.T) {
	h := newHarness(1)
	h.build(defCfg(), defCfg())
	l, _ := h.b.engine.Listen(proto.Addr{}, 80, 16)
	c := &Conn{}
	churn := func() {
		l.acceptQ = append(l.acceptQ, c)
		if l.Accept() != c || len(l.acceptQ) != 0 {
			t.Fatal("accept queue lost its entry")
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("accepting one connection at a time allocates %.1f times per accept", allocs)
	}
	if l.acceptQ[:1][0] != nil {
		t.Fatal("Accept left the PCB in the slot it vacated")
	}
}

// closeToTimeWait closes cli first and srv second, so cli ends in TIME_WAIT.
func closeToTimeWait(t *testing.T, h *harness, cli, srv *Conn) {
	t.Helper()
	cli.Close()
	h.run(h.now + sim.Millisecond)
	srv.Close()
	h.run(h.now + sim.Millisecond)
	if cli.State() != StateTimeWait {
		t.Fatalf("client is %v after both closes, want TIME_WAIT", cli.State())
	}
}

// TestTimeWaitReturnsBlock: a connection that enters TIME_WAIT with nothing
// buffered hands its block back at once, and still answers a retransmitted
// FIN with an ACK.
func TestTimeWaitReturnsBlock(t *testing.T) {
	h := newHarness(70)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	cli.Send(patterned(5000))
	srv.Send(patterned(3000))
	h.run(h.now + 10*sim.Millisecond)
	if cli.bufs == nil {
		t.Fatal("client never attached a buffer block")
	}
	free := h.a.engine.PoolStats().FreeBufs
	closeToTimeWait(t, h, cli, srv)
	if cli.bufs != nil || h.a.engine.PoolStats().FreeBufs != free+1 {
		t.Fatalf("TIME_WAIT kept its block (free blocks %d, were %d)", h.a.engine.PoolStats().FreeBufs, free)
	}

	// The server's FIN again, as if the client's ACK of it had been lost.
	var replies []proto.TCPHeader
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool {
		if from == h.a {
			replies = append(replies, *f.TCP)
		}
		return true
	}
	lp, rp := cli.key.localPort, cli.key.remotePort
	fin := proto.TCPHeader{SrcPort: rp, DstPort: lp, Seq: cli.rcv.nxt - 1, Ack: cli.snd.nxt,
		Flags: proto.TCPFin | proto.TCPAck, Window: 65535}
	f, err := proto.DecodeFrame(proto.BuildTCP(proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: h.b.addr, Dst: h.a.addr}, fin, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.a.engine.Input(f)
	f.Release()
	if len(replies) != 1 || replies[0].Flags != proto.TCPAck || replies[0].Ack != cli.rcv.nxt {
		t.Fatalf("a retransmitted FIN in TIME_WAIT drew %+v, want one ACK of %d", replies, cli.rcv.nxt)
	}
	if cli.State() != StateTimeWait {
		t.Fatalf("client is %v after the re-ACK", cli.State())
	}
}

// TestTimeWaitKeepsUnreadBytes: a connection that enters TIME_WAIT with
// received bytes its application has not read keeps its block, and Recv
// still returns them.
func TestTimeWaitKeepsUnreadBytes(t *testing.T) {
	h := newHarness(71)
	h.build(defCfg(), defCfg())
	h.a.autoRecv = false
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	want := patterned(4000)
	cli.Close()
	h.run(h.now + sim.Millisecond)
	srv.Send(want)
	srv.Close()
	h.run(h.now + sim.Millisecond)
	if cli.State() != StateTimeWait || cli.bufs == nil {
		t.Fatalf("client is %v with block %v, want TIME_WAIT holding its unread bytes", cli.State(), cli.bufs != nil)
	}
	if got := cli.Recv(0); !bytes.Equal(got, want) {
		t.Fatalf("Recv in TIME_WAIT returned %d of %d bytes, or not the bytes sent", len(got), len(want))
	}
	free := h.a.engine.PoolStats().FreeBufs
	h.run(h.now + timeWait + sim.Millisecond)
	if h.a.engine.NumConns() != 0 || h.a.engine.PoolStats().FreeBufs != free+1 {
		t.Fatal("the reaper did not return the block")
	}
}

// TestReturnedBlockStartsEmpty: the next connection to take a block returned
// at TIME_WAIT starts from empty buffers and carries both streams intact.
func TestReturnedBlockStartsEmpty(t *testing.T) {
	h := newHarness(72)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)
	cli.Send(patterned(70_000))
	srv.Send(patterned(30_000)[1:])
	h.run(h.now + 50*sim.Millisecond)
	block := cli.bufs
	closeToTimeWait(t, h, cli, srv)

	cli2, srv2 := h.connectPair(80)
	// srv2 may be srv's recycled PCB: collect its stream afresh.
	delete(h.b.recvData, srv2)
	up, down := patterned(90_000)[3:], patterned(40_000)[5:]
	if n := cli2.Send(up); n != len(up) {
		t.Fatalf("Send accepted %d of %d bytes", n, len(up))
	}
	if cli2.bufs != block || !bytes.Equal(block.snd, up) || len(block.rcv) != 0 || len(block.oo) != 0 {
		t.Fatal("the new connection did not take the block TIME_WAIT returned, or found it not empty")
	}
	srv2.Send(down)
	h.run(h.now + sim.Second)
	if !bytes.Equal(h.b.recvData[srv2], up) {
		t.Fatalf("client to server: %d of %d bytes, or not the bytes sent", len(h.b.recvData[srv2]), len(up))
	}
	if !bytes.Equal(h.a.recvData[cli2], down) {
		t.Fatalf("server to client: %d of %d bytes, or not the bytes sent", len(h.a.recvData[cli2]), len(down))
	}
}
