package tcpeng

import (
	"bytes"
	"testing"

	"neat/internal/proto"
	"neat/internal/sim"
)

// swapEngineB replaces B's engine with a fresh one (a "crashed and
// respawned" TCP component) and invalidates the old engine's timers.
func swapEngineB(h *harness, cfg Config) *Engine {
	h.b.gen = map[timerKey]int{}
	h.b.armed = map[timerKey]bool{}
	h.b.engine = NewEngine(h.b, h.b.addr, cfg)
	return h.b.engine
}

func TestSnapshotRestoreQuiescentConnectionsSurvive(t *testing.T) {
	h := newHarness(40)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)

	// Establish 3 connections and exchange some data, then go quiescent.
	type pair struct{ cli, srv *Conn }
	var pairs []pair
	for i := 0; i < 3; i++ {
		cli, srv := h.connectPair(80)
		if srv == nil {
			t.Fatal("no connection")
		}
		cli.Send([]byte("warmup"))
		pairs = append(pairs, pair{cli, srv})
	}
	h.run(h.now + 100*sim.Millisecond) // all data acked, fully quiescent

	snap := h.b.engine.Snapshot()
	if len(snap.Conns) != 3 || len(snap.Listeners) != 1 {
		t.Fatalf("snapshot: %d conns, %d listeners", len(snap.Conns), len(snap.Listeners))
	}
	if snap.StateBytes() < 3*256 {
		t.Fatalf("state bytes: %d", snap.StateBytes())
	}

	// Crash: new engine, restore the checkpoint.
	fresh := swapEngineB(h, defCfg())
	restored := fresh.Restore(snap)
	if len(restored) != len(snap.Conns) {
		t.Fatalf("Restore returned %d PCBs for %d snapshot entries", len(restored), len(snap.Conns))
	}
	for i, c := range restored {
		if c == nil || c.ID != snap.Conns[i].ConnID || c != fresh.conns[c.key] {
			t.Fatalf("entry %d: Restore returned %v, not the live PCB of ConnID %d", i, c, snap.Conns[i].ConnID)
		}
	}
	// A second restore finds every 4-tuple taken and builds nothing.
	for i, c := range fresh.Restore(snap) {
		if c != nil {
			t.Fatalf("entry %d restored over a live 4-tuple: %v", i, c)
		}
	}
	h.run(h.now + 100*sim.Millisecond) // resynchronization ACKs settle

	// All three connections still carry data in BOTH directions.
	for i, p := range pairs {
		// Find the restored server conn (same 4-tuple, new object).
		la, lp := p.cli.LocalAddr()
		var srv *Conn
		for _, c := range snapshot(fresh.conns) {
			ra, rp := c.RemoteAddr()
			if ra == la && rp == lp {
				srv = c
			}
		}
		if srv == nil {
			t.Fatalf("conn %d not in restored engine", i)
		}
		if srv.State() != StateEstablished {
			t.Fatalf("conn %d state %v", i, srv.State())
		}
		before := len(h.b.recvData[srv])
		p.cli.Send([]byte("post-restore"))
		h.runUntil(func() bool { return len(h.b.recvData[srv]) >= before+12 }, 2*sim.Second)
		if got := h.b.recvData[srv][before:]; !bytes.Equal(got, []byte("post-restore")) {
			t.Fatalf("conn %d client->server broken after restore: %q", i, got)
		}
		srv.Send([]byte("server-side"))
		want := "server-side"
		h.runUntil(func() bool {
			return bytes.HasSuffix(h.a.recvData[p.cli], []byte(want))
		}, 2*sim.Second)
		if !bytes.HasSuffix(h.a.recvData[p.cli], []byte(want)) {
			t.Fatalf("conn %d server->client broken after restore", i)
		}
	}
	// The restored listener accepts new connections too.
	cli, srv := h.connectPair(80)
	if srv == nil || cli.State() != StateEstablished {
		t.Fatal("restored listener does not accept")
	}
}

func TestSnapshotRestoreWithUnackedDataRetransmits(t *testing.T) {
	h := newHarness(41)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)

	// Server sends data but the checkpoint happens BEFORE the ACK comes
	// back: black-hole the wire, send, snapshot, crash, restore, unplug.
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool { return true }
	srv.Send(bytes.Repeat([]byte("x"), 5000))
	snap := h.b.engine.Snapshot()
	var inflight int
	for _, cs := range snap.Conns {
		inflight += len(cs.SndBuf)
	}
	if inflight != 5000 {
		t.Fatalf("snapshot captured %d unacked bytes", inflight)
	}

	fresh := swapEngineB(h, defCfg())
	fresh.Restore(snap)
	h.Drop = nil
	h.run(h.now + 2*sim.Second) // RTO retransmissions resynchronize

	if got := len(h.a.recvData[cli]); got != 5000 {
		t.Fatalf("client received %d of 5000 after restore", got)
	}
	if fresh.Stats().Retransmits == 0 {
		t.Fatal("restore did not retransmit")
	}
}

func TestRestorePreservesConnIDAndCtx(t *testing.T) {
	h := newHarness(42)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	_, srv := h.connectPair(80)
	srv.Ctx = "socket-bookkeeping"
	oldID := srv.ID

	snap := h.b.engine.Snapshot()
	fresh := swapEngineB(h, defCfg())
	fresh.Restore(snap)
	var restored *Conn
	for _, c := range snapshot(fresh.conns) {
		restored = c
	}
	if restored.ID != oldID {
		t.Fatalf("ConnID changed: %d -> %d", oldID, restored.ID)
	}
	if restored.Ctx != "socket-bookkeeping" {
		t.Fatalf("Ctx lost: %v", restored.Ctx)
	}
	// New conns after restore never collide with preserved IDs.
	c2, _ := fresh.Connect(h.a.addr, 9999)
	if c2.ID <= oldID {
		t.Fatalf("ID allocator rewound: %d", c2.ID)
	}
}

// TestRestoreRebindSingleRexmitFiring is the regression test for the
// timer-leak across checkpoint/restore re-binds: the old engine's armed
// rexmit timer survives the swap (this harness does NOT invalidate it, unlike
// swapEngineB) and fires into the respawned engine with the old conn. The
// engine-identity guard in OnTimer must reject that stale firing, so exactly
// one retransmission — the restored conn's own — happens at the first RTO.
func TestRestoreRebindSingleRexmitFiring(t *testing.T) {
	h := newHarness(44)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, srv := h.connectPair(80)

	// Unacked data in flight: the server's rexmit timer is pending.
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool { return true }
	srv.Send(bytes.Repeat([]byte("z"), 1000))
	snap := h.b.engine.Snapshot()

	// Crash + respawn WITHOUT invalidating the old engine's timers: the
	// leaked firing must be neutralized by the engine itself.
	fresh := NewEngine(h.b, h.b.addr, defCfg())
	h.b.engine = fresh
	fresh.Restore(snap)

	// Both the leaked timer and the restored conn's timer fire at +50ms
	// (initialRTO). Keep the wire black-holed and count firings.
	h.run(h.now + 60*sim.Millisecond)
	st := fresh.Stats()
	if st.Retransmits != 1 {
		t.Fatalf("want exactly 1 rexmit firing after restore, got %d", st.Retransmits)
	}
	if st.SpuriousTimerFirings == 0 {
		t.Fatal("leaked old-engine timer was not rejected")
	}

	// Unplug: the restored conn resynchronizes and delivers everything.
	h.Drop = nil
	h.run(h.now + 2*sim.Second)
	if got := len(h.a.recvData[cli]); got != 1000 {
		t.Fatalf("client received %d of 1000 after rebind", got)
	}
}

func TestRetriesExceededKillsStalledConn(t *testing.T) {
	h := newHarness(43)
	h.build(defCfg(), defCfg())
	h.b.engine.Listen(proto.Addr{}, 80, 16)
	cli, _ := h.connectPair(80)
	// Black-hole everything: the client retransmits, backs off, gives up.
	h.Drop = func(from *fakeEnv, f *proto.Frame) bool { return true }
	cli.Send([]byte("into the void"))
	h.run(h.now + 15*sim.Second) // maxRetries backed-off RTOs, capped at maxRTO
	if cli.State() != StateClosed {
		t.Fatalf("stalled conn still %v", cli.State())
	}
	if h.a.engine.Stats().RetriesExceeded != 1 {
		t.Fatalf("stats: %+v", h.a.engine.Stats())
	}
}
