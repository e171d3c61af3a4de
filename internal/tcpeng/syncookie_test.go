package tcpeng

import (
	"bytes"
	"testing"

	"neat/internal/proto"
	"neat/internal/sim"
)

func cookieCfg(watermark int) Config {
	cfg := defCfg()
	cfg.Guard.SynCookies = true
	cfg.Guard.SynCookieWatermark = watermark
	return cfg
}

func TestSynCookieStatelessHandshake(t *testing.T) {
	h := newHarness(50)
	h.build(defCfg(), cookieCfg(-1)) // every SYN answered with a cookie
	l, _ := h.b.engine.Listen(proto.Addr{}, 80, 64)

	cli, srv := h.connectPair(80)
	if srv == nil {
		t.Fatal("cookie handshake did not establish")
	}
	st := h.b.engine.Stats()
	if st.SynCookiesSent != 1 || st.SynCookiesValidated != 1 || st.SynCookiesRejected != 0 {
		t.Fatalf("cookie stats: %+v", st)
	}
	// The handshake never created an embryonic PCB.
	if l.embryonic != 0 || len(l.embQ) != 0 {
		t.Fatalf("embryonic state leaked: %d counted, %d queued", l.embryonic, len(l.embQ))
	}
	if srv.State() != StateEstablished {
		t.Fatalf("server conn %v", srv.State())
	}
	// Stateless handshakes negotiate no window scaling in either direction.
	if srv.rcv.wndShift != 0 || srv.snd.wndShift != 0 {
		t.Fatalf("cookie conn kept window scaling: rcv=%d snd=%d",
			srv.rcv.wndShift, srv.snd.wndShift)
	}
	if cli.snd.wndShift != 0 {
		t.Fatalf("client scaled against a cookie SYN|ACK: %d", cli.snd.wndShift)
	}
	if srv.MSS() != 1460 {
		t.Fatalf("cookie MSS quantization: %d", srv.MSS())
	}

	// Data flows both ways on the materialized connection.
	cli.Send([]byte("ping"))
	h.runUntil(func() bool { return bytes.Equal(h.b.recvData[srv], []byte("ping")) }, sim.Second)
	if !bytes.Equal(h.b.recvData[srv], []byte("ping")) {
		t.Fatalf("client->server: %q", h.b.recvData[srv])
	}
	srv.Send([]byte("pong"))
	h.runUntil(func() bool { return bytes.Equal(h.a.recvData[cli], []byte("pong")) }, sim.Second)
	if !bytes.Equal(h.a.recvData[cli], []byte("pong")) {
		t.Fatalf("server->client: %q", h.a.recvData[cli])
	}
}

func TestSynCookieRejectsForgedAck(t *testing.T) {
	h := newHarness(51)
	h.build(defCfg(), cookieCfg(-1))
	h.b.engine.Listen(proto.Addr{}, 80, 64)

	// An attacker fires a bare ACK with a guessed cookie at the listener.
	var hdr proto.TCPHeader
	hdr.SrcPort, hdr.DstPort = 7777, 80
	hdr.Flags = proto.TCPAck
	hdr.Seq = 1000
	hdr.Ack = 0xdeadbeef
	raw := proto.BuildTCP(
		proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: h.a.addr, Dst: h.b.addr},
		hdr, nil)
	f, err := proto.DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	before := h.b.segsSent
	h.b.engine.Input(f)
	st := h.b.engine.Stats()
	if st.SynCookiesRejected != 1 {
		t.Fatalf("rejection not counted: %+v", st)
	}
	if h.b.engine.NumConns() != 0 {
		t.Fatal("forged ACK materialized a PCB")
	}
	// Swallowed silently: no RST amplification back at the spoofed source.
	if st.ResetsOut != 0 || h.b.segsSent != before {
		t.Fatalf("forged ACK answered: resets=%d", st.ResetsOut)
	}
}

func TestSynCookieEngagesAboveWatermark(t *testing.T) {
	h := newHarness(52)
	cfg := cookieCfg(2)
	h.build(defCfg(), cfg)
	l, _ := h.b.engine.Listen(proto.Addr{}, 80, 64)

	// Two handshakes held half-open by dropping their completing ACKs
	// (client bare ACKs A->B) fill the embryonic table to the watermark.
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool {
		return from == h.a && f.TCP.Flags == proto.TCPAck && len(f.Payload) == 0
	}
	h.a.engine.Connect(h.b.addr, 80)
	h.a.engine.Connect(h.b.addr, 80)
	h.run(h.now + 10*sim.Millisecond)
	if l.embryonic != 2 {
		t.Fatalf("embryonic below watermark: %d", l.embryonic)
	}
	if h.b.engine.Stats().SynCookiesSent != 0 {
		t.Fatal("cookies engaged below the watermark")
	}

	// The third SYN rides the cookie path and still establishes.
	h.Drop = nil
	cli, srv := h.connectPair(80)
	if srv == nil || cli.State() != StateEstablished {
		t.Fatal("cookie handshake above watermark failed")
	}
	st := h.b.engine.Stats()
	if st.SynCookiesSent == 0 || st.SynCookiesValidated == 0 {
		t.Fatalf("third SYN did not use a cookie: %+v", st)
	}
	if l.embryonic != 2 {
		t.Fatalf("cookie handshake touched the embryonic table: %d", l.embryonic)
	}
}

func TestPCBPoolRecyclesAcrossConnLifetimes(t *testing.T) {
	h := newHarness(53)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)

	var firstSrv *Conn
	for i := 0; i < 5; i++ {
		cli, srv := h.connectPair(80)
		if srv == nil {
			t.Fatalf("round %d: no connection", i)
		}
		if i == 0 {
			firstSrv = srv
		} else if srv != firstSrv {
			// The server-side PCB struct should be recycled round-robin
			// through the free list (one live server conn at a time).
			t.Fatalf("round %d: PCB not recycled (got %p want %p)", i, srv, firstSrv)
		}
		cli.Send([]byte("payload"))
		h.runUntil(func() bool { return len(h.b.recvData[srv]) >= 7 }, sim.Second)
		cli.Close()
		srv.Close()
		// Run past TIME_WAIT so both PCBs are removed and recycled.
		h.run(h.now + timeWait + 50*sim.Millisecond)
		if n := h.b.engine.NumConns(); n != 0 {
			t.Fatalf("round %d: %d conns still live", i, n)
		}
		h.b.recvData[srv] = nil
	}
	ps := h.b.engine.PoolStats()
	if ps.Reused < 4 {
		t.Fatalf("pool reuse not observed: %+v", ps)
	}
	if ps.FreeConns == 0 || ps.FreeBufs == 0 {
		t.Fatalf("free lists empty after teardown: %+v", ps)
	}
}

func TestPoolStatsDistinguishesHotAndFull(t *testing.T) {
	h := newHarness(54)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli1, srv1 := h.connectPair(80)
	cli2, _ := h.connectPair(80)
	_ = cli2
	// Conn 1 buffers data (full); conn 2 never does (hot/compact).
	cli1.Send([]byte("data"))
	h.runUntil(func() bool { return len(h.b.recvData[srv1]) >= 4 }, sim.Second)
	ps := h.b.engine.PoolStats()
	// srv1 attached buffers; srv2 may or may not have, depending only on
	// whether it buffered bytes — it did not.
	if ps.LiveFull < 1 || ps.LiveHot < 1 {
		t.Fatalf("pool occupancy: %+v", ps)
	}
	if ps.LiveFull+ps.LiveHot != h.b.engine.NumConns() {
		t.Fatalf("occupancy does not sum: %+v vs %d", ps, h.b.engine.NumConns())
	}
}
