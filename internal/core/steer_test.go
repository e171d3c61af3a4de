package core_test

import (
	"testing"

	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/testbed"
)

// newSteerBed is newBed with an explicit seed and steering configuration:
// the placement-plane tests need non-default policies.
func newSteerBed(t *testing.T, seed int64, kind stack.Kind, slots [][]testbed.ThreadLoc,
	steering steer.Config) *bed {
	t.Helper()
	return listeningBed(t, seed, testbed.NEaTConfig{
		Kind: kind, Slots: slots, Syscall: testbed.ThreadLoc{Core: 1},
		Steering: steering,
	})
}

// talkerApp keeps connections open and exchanges a round of echo traffic
// on demand — the probe for "is this flow still reaching its replica".
type talkerApp struct {
	proc     *sim.Proc
	lib      *socketlib.Lib
	server   *testbed.Host
	socks    []*socketlib.Socket
	open     int
	echoes   int
	failures int
}

func newTalkerApp(b *bed) *talkerApp {
	a := &talkerApp{server: b.server}
	a.proc = sim.NewProc(b.client.AppThread(b.client.Machine.NumCores()-2), "talker", a,
		sim.ProcConfig{Component: "app"})
	a.lib = socketlib.New(a.proc, b.clisys.SyscallProc(), ipc.DefaultCosts())
	return a
}

func (a *talkerApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	ctx.Charge(200)
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	switch msg {
	case "dial":
		s := a.lib.Connect(ctx, a.server.IP, 80)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				a.open++
				a.socks = append(a.socks, s)
			} else {
				a.failures++
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			if len(data) > 0 {
				a.echoes++
			}
		}
		s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
			a.failures++
			a.open--
		}
	case "ping":
		for _, s := range a.socks {
			s.Send(ctx, []byte("ping"))
		}
	}
}

// pingAll sends one echo round over every open connection and returns how
// many echoes came back within 200 ms of simulated time.
func (a *talkerApp) pingAll(b *bed) int {
	before := a.echoes
	a.proc.Deliver("ping")
	b.net.Sim.RunFor(200 * sim.Millisecond)
	return a.echoes - before
}

// TestDrainScaleDown is the graceful-drain acceptance test: scaling down
// mid-burst must lose zero established connections — in-flight requests
// on the retiring replica complete, only new placement avoids it, and the
// slot is collected once its last connection closes.
func TestDrainScaleDown(t *testing.T) {
	b := newSteerBed(t, 7, stack.Single, testbed.SingleSlots(2, 2), steer.Config{})
	b.connect(30)
	// Let the burst get established but not complete, then retire a slot.
	b.net.Sim.RunFor(500 * sim.Microsecond)
	if err := b.sys.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	b.net.Sim.RunFor(2 * sim.Second)
	if b.cli.done != 30 || b.cli.failed != 0 || b.cli.resets != 0 {
		t.Fatalf("drain lost connections: done=%d failed=%d resets=%d",
			b.cli.done, b.cli.failed, b.cli.resets)
	}
	st := b.sys.Stats()
	if st.ConnectionsLost != 0 {
		t.Fatalf("connections lost during drain: %d", st.ConnectionsLost)
	}
	if b.sys.SlotStates()[1].String() != "empty" {
		t.Fatalf("retired slot not collected: %v (conns=%d)",
			b.sys.SlotStates(), b.sys.TotalConns())
	}
	if b.sys.Stats().ReplicasGarbage != 1 {
		t.Fatalf("stats: %+v", b.sys.Stats())
	}
}

// TestFlowPinningAcrossRebinds is the satellite-3 regression: established
// connections keep landing on their owning replica's queue through
// scale-up, scale-down and a respawn — each of which reprograms the RSS
// indirection (here with the ring policy, which genuinely remaps hash
// space on every membership change).
func TestFlowPinningAcrossRebinds(t *testing.T) {
	b := newSteerBed(t, 7, stack.Multi, testbed.MultiSlots(2, 3),
		steer.Config{Policy: steer.PolicyRing})
	// Every slot boots active; retiring one before any connection exists
	// collects it at once and leaves a free slot for the scale-up below.
	if err := b.sys.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	talker := newTalkerApp(b)
	for i := 0; i < 12; i++ {
		talker.proc.Deliver("dial")
	}
	b.net.Sim.RunFor(200 * sim.Millisecond)
	if talker.open != 12 {
		t.Fatalf("open=%d failures=%d", talker.open, talker.failures)
	}
	if got := talker.pingAll(b); got != 12 {
		t.Fatalf("baseline echo round: %d/12", got)
	}

	// Scale-up: ring gains a member, unpinned hash space remaps.
	if _, err := b.sys.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if got := talker.pingAll(b); got != 12 {
		t.Fatalf("echo round after scale-up: %d/12 (failures=%d)", got, talker.failures)
	}

	// Scale-down: the new (empty) replica retires, another remap.
	if err := b.sys.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	if got := talker.pingAll(b); got != 12 {
		t.Fatalf("echo round after scale-down: %d/12 (failures=%d)", got, talker.failures)
	}

	// Respawn: crash a stateless IP component; recovery rebinds the queue
	// and reprograms RSS, the TCP state (and the pinning filters) survive.
	victim := b.sys.Replicas()[0]
	if victim.TCP().NumConns() == 0 {
		victim = b.sys.Replicas()[1]
	}
	victim.EntryProc().Crash(sim.ErrKilled)
	b.net.Sim.RunFor(100 * sim.Millisecond)
	if got := talker.pingAll(b); got != 12 {
		t.Fatalf("echo round after respawn: %d/12 (failures=%d)", got, talker.failures)
	}
	if talker.failures != 0 {
		t.Fatalf("rebinds broke %d connections", talker.failures)
	}
	if st := b.sys.Stats(); st.TransparentRecov != 1 {
		t.Fatalf("expected one transparent recovery: %+v", st)
	}
}

// TestConnectPlacementReproducible is the satellite-1 regression: with
// placement drawing from the simulator's seeded RNG, two runs from the
// same seed place every connection identically — per-replica accepted
// counts match exactly. (A placer with private randomness would diverge.)
func TestConnectPlacementReproducible(t *testing.T) {
	accepted := func() []uint64 {
		b := newSteerBed(t, 11, stack.Single, testbed.SingleSlots(2, 3),
			steer.Config{})
		b.connect(24)
		b.net.Sim.RunFor(2 * sim.Second)
		if b.cli.done != 24 {
			t.Fatalf("done=%d failed=%d resets=%d", b.cli.done, b.cli.failed, b.cli.resets)
		}
		var out []uint64
		for _, r := range b.sys.Replicas() {
			out = append(out, r.TCP().Stats().AcceptedConns)
		}
		return out
	}
	a, bb := accepted(), accepted()
	if len(a) != len(bb) {
		t.Fatalf("replica counts differ: %v vs %v", a, bb)
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("placement diverged between identical runs: %v vs %v", a, bb)
		}
	}
}
