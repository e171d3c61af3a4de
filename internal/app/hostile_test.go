package app

import (
	"testing"

	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// attackerCore returns a free client-host core beyond the loadgen block
// (the client system occupies cores 2..2+loadgens-1, loadgens sit at
// 2+loadgens..2+2*loadgens-1).
func attackerCore(loadgens, i int) int { return 2 + 2*loadgens + i }

func serverTCPStats(b *webBed) tcpeng.Stats {
	var out tcpeng.Stats
	for _, r := range b.sys.Replicas() {
		st := r.TCP().Stats()
		out.SynShed += st.SynShed
		out.SlowlorisReaped += st.SlowlorisReaped
		out.SrcCapped += st.SrcCapped
		out.DroppedSynBacklog += st.DroppedSynBacklog
	}
	return out
}

func TestSlowlorisHoldsUnguardedServer(t *testing.T) {
	b := newWebBed(t, 1, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 2, ReqPerConn: 10})
	sl := NewSlowloris(b.client.AppThread(attackerCore(1, 0)), "slowloris",
		b.clisys.SyscallProc(), ipc.DefaultCosts(),
		SlowlorisConfig{Target: b.server.IP, Port: 80, Conns: 16})
	sl.Start()
	b.start()
	b.run(200 * sim.Millisecond)

	st := sl.Stats()
	if st.ConnsOpened != 16 || st.Reaped != 0 {
		t.Fatalf("unguarded server disturbed the attack: %+v", st)
	}
	if st.BytesTrickled == 0 {
		t.Fatal("attack never trickled")
	}
	// The held connections are dead weight the server cannot shed.
	if got := serverTCPStats(b); got.SlowlorisReaped != 0 {
		t.Fatalf("no guards configured but reaped=%d", got.SlowlorisReaped)
	}
	if b.servers[0].Stats().Responses == 0 {
		t.Fatal("legit traffic should still flow at this attack size")
	}
}

func TestGuardReapsSlowloris(t *testing.T) {
	tcp := tcpeng.DefaultConfig()
	tcp.Guard.HeaderDeadline = 10 * sim.Millisecond
	tcp.Guard.HeaderMinBytes = 24 // below one legit request head (~32 bytes)
	b := newWebBed(t, 1, 1, 1, tcp,
		HTTPDConfig{}, LoadgenConfig{Conns: 4, ReqPerConn: 10})
	sl := NewSlowloris(b.client.AppThread(attackerCore(1, 0)), "slowloris",
		b.clisys.SyscallProc(), ipc.DefaultCosts(),
		SlowlorisConfig{Target: b.server.IP, Port: 80, Conns: 16})
	sl.Start()
	b.start()
	b.run(300 * sim.Millisecond)

	if reaped := serverTCPStats(b).SlowlorisReaped; reaped < 16 {
		t.Fatalf("guard reaped only %d slow readers", reaped)
	}
	// The attacker sees its connections reset and keeps replacing them.
	if st := sl.Stats(); st.Reaped < 16 || st.ConnsOpened <= 16 {
		t.Fatalf("attacker-side view: %+v", st)
	}
	// Legitimate clients are untouched: full request heads arrive at once,
	// far ahead of the deadline.
	if b.errors() != 0 {
		t.Fatalf("guard harmed legit traffic: %d errors", b.errors())
	}
	if b.responses() < 100 {
		t.Fatalf("legit goodput collapsed: %d responses", b.responses())
	}
}

func TestGuardIdleReapsSilentConns(t *testing.T) {
	tcp := tcpeng.DefaultConfig()
	tcp.Guard.IdleDeadline = 10 * sim.Millisecond
	b := newWebBed(t, 1, 1, 1, tcp,
		HTTPDConfig{}, LoadgenConfig{Conns: 4, ReqPerConn: 10})
	// Silent holders: handshake, then nothing for 500 ms.
	ch := NewConnChurn(b.client.AppThread(attackerCore(1, 0)), "holder",
		b.clisys.SyscallProc(), ipc.DefaultCosts(),
		ConnChurnConfig{Target: b.server.IP, Port: 80, Conns: 8, Hold: 500 * sim.Millisecond})
	ch.Start()
	b.start()
	b.run(300 * sim.Millisecond)

	if reaped := serverTCPStats(b).SlowlorisReaped; reaped < 50 {
		t.Fatalf("idle deadline reaped only %d silent conns", reaped)
	}
	if b.errors() != 0 {
		t.Fatalf("idle deadline harmed legit traffic: %d errors", b.errors())
	}
	if b.responses() < 100 {
		t.Fatalf("legit goodput collapsed: %d responses", b.responses())
	}
}

func TestSYNFloodOverwhelmsUnguardedBacklog(t *testing.T) {
	b := newWebBed(t, 1, 1, 1, tcpeng.DefaultConfig(),
		HTTPDConfig{Backlog: 48},
		LoadgenConfig{Conns: 4, ReqPerConn: 2, Timeout: 100 * sim.Millisecond})
	fl := NewSYNFlood(b.client.AppThread(attackerCore(1, 0)), "synflood",
		b.client.Driver.Proc(), ipc.DefaultCosts(),
		SYNFloodConfig{Target: b.server.IP, TargetMAC: b.server.MAC,
			SrcMAC: b.client.MAC, Port: 80})
	fl.Start()
	b.run(50 * sim.Millisecond) // flood fills the embryonic backlog
	b.start()
	for _, g := range b.gens {
		g.BeginMeasure()
	}
	b.run(200 * sim.Millisecond)

	if fl.Stats().SynsSent < 1000 {
		t.Fatalf("flood too slow: %d SYNs", fl.Stats().SynsSent)
	}
	if dropped := serverTCPStats(b).DroppedSynBacklog; dropped == 0 {
		t.Fatal("backlog never overflowed")
	}
	// New legit connections cannot get in: goodput collapses to the few
	// requests the pre-flood connections still complete.
	var window uint64
	for _, g := range b.gens {
		window += g.Stats().WindowResponses
	}
	if window > 50 {
		t.Fatalf("flood failed to starve the unguarded server: %d window responses", window)
	}
}

func TestGuardShedsSynFloodKeepsService(t *testing.T) {
	tcp := tcpeng.DefaultConfig()
	tcp.Guard.SynBacklog = 32
	b := newWebBed(t, 1, 1, 1, tcp,
		HTTPDConfig{Backlog: 48},
		LoadgenConfig{Conns: 4, ReqPerConn: 2, Timeout: 100 * sim.Millisecond})
	fl := NewSYNFlood(b.client.AppThread(attackerCore(1, 0)), "synflood",
		b.client.Driver.Proc(), ipc.DefaultCosts(),
		SYNFloodConfig{Target: b.server.IP, TargetMAC: b.server.MAC,
			SrcMAC: b.client.MAC, Port: 80})
	fl.Start()
	b.run(50 * sim.Millisecond)
	b.start()
	for _, g := range b.gens {
		g.BeginMeasure()
	}
	b.run(200 * sim.Millisecond)

	st := serverTCPStats(b)
	if st.SynShed == 0 {
		t.Fatal("guard never shed")
	}
	// The bounded backlog never reaches the listener limit, so legit SYNs
	// always find a slot (shedding the oldest flood embryo) and complete
	// their handshake within an RTT.
	if st.DroppedSynBacklog != 0 {
		t.Fatalf("listener backlog still overflowed %d times", st.DroppedSynBacklog)
	}
	if b.errors() != 0 {
		t.Fatalf("legit errors under guarded flood: %d", b.errors())
	}
	var window uint64
	for _, g := range b.gens {
		window += g.Stats().WindowResponses
	}
	if window < 200 {
		t.Fatalf("goodput under guarded flood too low: %d window responses", window)
	}
}

func TestGuardSourceCapBoundsChurn(t *testing.T) {
	tcp := tcpeng.DefaultConfig()
	tcp.Guard.MaxConnsPerSource = 12
	// Loadgen is built but never started: the churner is alone, so every
	// connection from the client host's (single) source address is hostile.
	b := newWebBed(t, 1, 1, 1, tcp, HTTPDConfig{}, LoadgenConfig{})
	ch := NewConnChurn(b.client.AppThread(attackerCore(1, 0)), "churn",
		b.clisys.SyscallProc(), ipc.DefaultCosts(),
		ConnChurnConfig{Target: b.server.IP, Port: 80, Conns: 32, Hold: 50 * sim.Millisecond})
	ch.Start()
	b.run(300 * sim.Millisecond)

	st := serverTCPStats(b)
	if st.SrcCapped == 0 {
		t.Fatal("source cap never engaged")
	}
	if got := ch.Stats(); got.Opened < 40 {
		t.Fatalf("churn stalled entirely: %+v", got)
	}
	// The server never held more than the cap (plus the handful of
	// handshakes in flight) for this source.
	if n := b.sys.TotalConns(); n > 16 {
		t.Fatalf("source cap leaked: %d live conns on the server", n)
	}
}
