package core_test

import (
	"testing"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// newWatchdogBed is newBed with heartbeat failure detection instead of the
// paper-fidelity crash oracle.
func newWatchdogBed(t *testing.T, kind stack.Kind, slots [][]testbed.ThreadLoc) *bed {
	t.Helper()
	return listeningBed(t, 7, testbed.NEaTConfig{
		Kind: kind, Slots: slots, Syscall: testbed.ThreadLoc{Core: 1},
		Watchdog: true,
	})
}

// detectionBound is the documented worst-case declaration latency,
// (K+1)·interval with the watchdog's K = 3 misses and 100 µs interval: the
// first probe after the failure lags it by up to one interval, and K further
// intervals must elapse before the threshold is crossed.
const detectionBound = 4 * 100 * sim.Microsecond

func TestWatchdogDetectsHungReplicaWithinBound(t *testing.T) {
	b := newWatchdogBed(t, stack.Multi, testbed.MultiSlots(2, 2))
	holder := newHolderApp(b)
	for i := 0; i < 8; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	victim := b.sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = b.sys.Replicas()[1]
	}
	held := victim.TCP().NumConns()
	if held == 0 {
		t.Skip("seed put all connections on one replica")
	}

	// Livelock the TCP component: alive, but drains nothing. The crash
	// oracle of paper-fidelity mode would never fire here.
	victim.SockProc().Hang()
	b.net.Sim.RunFor(50 * sim.Millisecond)

	wd := b.sys.Watchdog()
	wst := wd.Stats()
	if wst.HangsDetected != 1 {
		t.Fatalf("hangs detected = %d, want 1 (stats %+v)", wst.HangsDetected, wst)
	}
	if wst.SpuriousDetected != 0 {
		t.Fatalf("spurious detections on a healthy system: %+v", wst)
	}
	if lat := wd.DetectionLatency().Max(); lat > detectionBound {
		t.Fatalf("detection latency %v exceeds (K+1)·interval = %v", lat, detectionBound)
	}
	st := b.sys.Stats()
	if st.Recoveries != 1 || st.TCPStateLost != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if b.app.failures != held {
		t.Fatalf("server app saw %d failures, want %d", b.app.failures, held)
	}

	// Zero unreachable: the service accepts new connections on both
	// replicas after the hang is cleared.
	before := b.cli.done
	b.connect(20)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != before+20 {
		t.Fatalf("post-recovery connects: done=%d want=%d (failed=%d resets=%d)",
			b.cli.done, before+20, b.cli.failed, b.cli.resets)
	}
}

func TestWatchdogRecoversHungDriver(t *testing.T) {
	b := newWatchdogBed(t, stack.Single, testbed.SingleSlots(2, 2))
	b.connect(5)
	b.net.Sim.RunFor(500 * sim.Millisecond)
	if b.cli.done != 5 {
		t.Fatalf("warmup failed: %d", b.cli.done)
	}

	// Livelock the whole data plane: the driver stops moving packets.
	b.sys.Driver().Proc().Hang()
	b.net.Sim.RunFor(50 * sim.Millisecond)

	wst := b.sys.Watchdog().Stats()
	if wst.HangsDetected != 1 {
		t.Fatalf("hangs detected = %d (stats %+v)", wst.HangsDetected, wst)
	}
	if st := b.sys.Stats(); st.DriverRecoveries != 1 {
		t.Fatalf("driver recoveries = %d (stats %+v)", st.DriverRecoveries, st)
	}

	// The respawned driver re-binds every queue: traffic flows again.
	before := b.cli.done
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != before+10 {
		t.Fatalf("post-recovery connects: done=%d want=%d (failed=%d resets=%d)",
			b.cli.done, before+10, b.cli.failed, b.cli.resets)
	}
}

func TestWatchdogRecoversHungSyscallServer(t *testing.T) {
	b := newWatchdogBed(t, stack.Single, testbed.SingleSlots(2, 2))
	b.connect(5)
	b.net.Sim.RunFor(500 * sim.Millisecond)
	if b.cli.done != 5 {
		t.Fatalf("warmup failed: %d", b.cli.done)
	}

	b.sys.Syscall().Proc().Hang()
	b.net.Sim.RunFor(50 * sim.Millisecond)

	if st := b.sys.Stats(); st.SyscallRecoveries != 1 {
		t.Fatalf("syscall recoveries = %d (stats %+v)", st.SyscallRecoveries, st)
	}

	// The listen table lives in the management plane and survived: the
	// server's existing listener keeps accepting without re-listening.
	before := b.cli.done
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != before+10 {
		t.Fatalf("post-recovery connects: done=%d want=%d (failed=%d resets=%d)",
			b.cli.done, before+10, b.cli.failed, b.cli.resets)
	}
}

func TestWatchdogCrashStormConvergesToQuarantine(t *testing.T) {
	b := newWatchdogBed(t, stack.Multi, testbed.MultiSlots(2, 2))
	victim := b.sys.Replicas()[0]

	// Kill the replica's IP component every time it comes back. The ladder
	// must escalate component restart → whole-replica rebuild → quarantine
	// instead of respawning forever.
	for i := 0; i < 10 && b.sys.SlotStates()[0].String() != "quarantined"; i++ {
		if p := victim.EntryProc(); !p.Dead() {
			p.Crash(sim.ErrKilled)
		}
		b.net.Sim.RunFor(10 * sim.Millisecond)
	}

	st := b.sys.Stats()
	states := b.sys.SlotStates()
	if states[0].String() != "quarantined" || st.SlotsQuarantined != 1 {
		t.Fatalf("storm did not converge to quarantine: states=%v stats=%+v", states, st)
	}
	// Bounded respawn work: at most MaxRestarts-1 recovery cycles before
	// the slot is fenced (default M=5).
	if st.Recoveries >= 5 {
		t.Fatalf("unbounded respawns during storm: %d recoveries", st.Recoveries)
	}
	if st.ReplicaRebuilds == 0 {
		t.Fatal("escalation never reached the whole-replica-rebuild rung")
	}

	// The surviving replica keeps the service up.
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("service down after quarantine: done=%d failed=%d resets=%d",
			b.cli.done, b.cli.failed, b.cli.resets)
	}
	if b.sys.NumActive() != 1 {
		t.Fatalf("active replicas = %d, want 1", b.sys.NumActive())
	}
}

func TestWatchdogSpuriousDetectionOnLossyChannel(t *testing.T) {
	b := newWatchdogBed(t, stack.Multi, testbed.MultiSlots(2, 2))
	victim := b.sys.Replicas()[0]

	// Drop almost every delivery to the IP component: heartbeat probes
	// vanish, so the detector — which cannot distinguish a dead process
	// from an unreachable one — eventually declares it failed even though
	// it is healthy. The kill-and-respawn that follows is safe, just
	// wasted work.
	victim.EntryProc().SetDropRate(0.97)
	b.net.Sim.RunFor(100 * sim.Millisecond)

	wst := b.sys.Watchdog().Stats()
	if wst.SpuriousDetected == 0 {
		t.Fatalf("lossy channel never triggered a spurious detection: %+v", wst)
	}
	if st := b.sys.Stats(); st.Recoveries == 0 {
		t.Fatalf("spurious detection did not trigger recovery: %+v", st)
	}

	// The replacement process has a clean channel: service intact.
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("service degraded after spurious detection: done=%d failed=%d",
			b.cli.done, b.cli.failed)
	}
}

// TestSecondCrashWithinRecoveryWindow is the regression test for the
// recovery-merge fix: in paper-fidelity (oracle) mode, when both
// components of a multi-component replica die within one recoveryDelay
// window, the second crash used to be silently dropped — its connection
// loss went unrecorded and the recovery stayed classified as transparent.
func TestSecondCrashWithinRecoveryWindow(t *testing.T) {
	b := newBed(t, stack.Multi, testbed.MultiSlots(2, 2))
	holder := newHolderApp(b)
	for i := 0; i < 10; i++ {
		holder.proc.Deliver("hold")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	victim := b.sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = b.sys.Replicas()[1]
	}
	held := victim.TCP().NumConns()
	if held == 0 {
		t.Skip("seed put all connections on one replica")
	}

	// First the stateless IP component dies (transparent so far), then the
	// TCP component dies 100 µs later — well inside the 500 µs respawn
	// window of the first recovery.
	victim.EntryProc().Crash(sim.ErrKilled)
	b.net.Sim.RunFor(100 * sim.Microsecond)
	victim.SockProc().Crash(sim.ErrKilled)
	b.net.Sim.RunFor(200 * sim.Millisecond)

	st := b.sys.Stats()
	if st.Recoveries != 1 || st.SecondaryCrashes != 1 {
		t.Fatalf("second crash not merged into the cycle: %+v", st)
	}
	if st.TransparentRecov != 0 || st.TCPStateLost != 1 {
		t.Fatalf("recovery misclassified as transparent: %+v", st)
	}
	if int(st.ConnectionsLost) != held {
		t.Fatalf("lost %d connections, held %d", st.ConnectionsLost, held)
	}
	if b.app.failures != held {
		t.Fatalf("server app saw %d failures, want %d", b.app.failures, held)
	}

	// Both components respawned; the replica serves again.
	b.connect(20)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 20 {
		t.Fatalf("post-recovery connects: done=%d failed=%d resets=%d",
			b.cli.done, b.cli.failed, b.cli.resets)
	}
}

// TestQuarantineAllReplicasEntersDropAll covers the zero-active-replicas
// RSS state: with every slot fenced, the NIC is put into the explicit
// drop-all state (empty RSS set, unmatched flows dropped in hardware) and
// connection attempts are refused cleanly instead of hashing onto dead
// queues.
func TestQuarantineAllReplicasEntersDropAll(t *testing.T) {
	b := newBed(t, stack.Single, testbed.SingleSlots(2, 2))
	b.connect(10)
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 10 {
		t.Fatalf("warmup failed: %d", b.cli.done)
	}

	if err := b.sys.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	if err := b.sys.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if b.sys.NumActive() != 0 {
		t.Fatalf("active=%d after quarantining all slots", b.sys.NumActive())
	}
	if q := b.server.NIC.RSSQueues(); len(q) != 0 {
		t.Fatalf("RSS set not empty with zero active replicas: %v", q)
	}

	// A fresh inbound SYN (no exact filter, empty RSS set) is dropped in
	// hardware, not hashed onto a dead queue.
	tcp := proto.TCPHeader{SrcPort: 4242, DstPort: 80, Flags: proto.TCPSyn, Window: 65535}
	raw := proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&tcp, 0))[:0],
		proto.EthernetHeader{Dst: b.server.MAC, Src: b.client.MAC, Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Protocol: proto.ProtoTCP, Src: b.client.IP, Dst: b.server.IP},
		tcp, nil)
	drops := b.server.NIC.Stats().RxDropNoRSS
	b.server.NIC.Receive(raw)
	if got := b.server.NIC.Stats().RxDropNoRSS; got != drops+1 {
		t.Fatalf("RxDropNoRSS = %d, want %d (drop-all not engaged)", got, drops+1)
	}

	// Real client connects see remote silence (their SYNs — and the
	// retransmissions — are dropped in hardware, like against a dead
	// host): nothing completes, nothing panics, and every attempt is
	// accounted as a hardware drop.
	b.connect(3)
	b.net.Sim.RunFor(500 * sim.Millisecond)
	if b.cli.done != 10 || b.cli.resets != 0 {
		t.Fatalf("traffic against a drained system: done=%d resets=%d",
			b.cli.done, b.cli.resets)
	}
	if got := b.server.NIC.Stats().RxDropNoRSS; got < drops+3 {
		t.Fatalf("SYNs not dropped in hardware: RxDropNoRSS=%d want >=%d", got, drops+3)
	}
}

// TestEscalationWindowResetsAfterCleanRecovery is the regression guard for
// the sliding failure window in the escalation ladder: a slot that
// recovers cleanly and then runs clean for longer than the 50 ms failure window
// has its failure history pruned, so widely spaced failures are each
// treated as a first strike — component restart only, never rebuild or
// quarantine — no matter how many accumulate over a long run. Failures
// packed inside one window must still climb the ladder to quarantine.
func TestEscalationWindowResetsAfterCleanRecovery(t *testing.T) {
	b := newWatchdogBed(t, stack.Multi, testbed.MultiSlots(2, 2))
	victim := b.sys.Replicas()[0]

	// Eight failures, each spaced well beyond the default 50 ms window:
	// every escalation sees a pruned history and stays on the first rung.
	for i := 0; i < 8; i++ {
		if p := victim.EntryProc(); !p.Dead() {
			p.Crash(sim.ErrKilled)
		}
		b.net.Sim.RunFor(100 * sim.Millisecond)
	}
	st := b.sys.Stats()
	if b.sys.SlotStates()[0].String() == "quarantined" || st.SlotsQuarantined != 0 {
		t.Fatalf("spaced failures quarantined the slot: %+v", st)
	}
	if st.ReplicaRebuilds != 0 {
		t.Fatalf("spaced failures reached the rebuild rung: %+v", st)
	}
	if st.Recoveries < 8 {
		t.Fatalf("recoveries = %d, want >= 8 (one per spaced failure)", st.Recoveries)
	}

	// The history is forgotten, not the mechanism: failures packed inside
	// one window still converge to quarantine.
	for i := 0; i < 10 && b.sys.SlotStates()[0].String() != "quarantined"; i++ {
		if p := victim.EntryProc(); !p.Dead() {
			p.Crash(sim.ErrKilled)
		}
		b.net.Sim.RunFor(10 * sim.Millisecond)
	}
	if b.sys.SlotStates()[0].String() != "quarantined" {
		t.Fatal("tight failures no longer quarantine after the spaced run")
	}
}
