package faultinject

import (
	"math"
	"math/rand"
	"testing"

	"neat/internal/core"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

func TestWeightsMatchPaper(t *testing.T) {
	inj := New(rand.New(rand.NewSource(1)), nil)
	share := inj.TCPShare()
	// Table 3: 46.2 % of failing runs lose TCP connections.
	if math.Abs(share-0.462) > 0.005 {
		t.Fatalf("TCP code share = %.3f, want ≈0.462", share)
	}
}

func TestPickDistribution(t *testing.T) {
	inj := New(rand.New(rand.NewSource(7)), nil)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[inj.pick()]++
	}
	got := float64(counts["tcp"]) / n
	if math.Abs(got-0.462) > 0.02 {
		t.Fatalf("empirical tcp share %.3f, want ≈0.462", got)
	}
	// Every component's empirical share must track its code-size weight,
	// not just TCP's.
	var total float64
	for _, c := range DefaultComponents {
		total += c.Weight
	}
	for _, c := range DefaultComponents {
		want := c.Weight / total
		emp := float64(counts[c.Name]) / n
		if math.Abs(emp-want) > 0.02 {
			t.Fatalf("component %s: empirical share %.3f, want ≈%.3f", c.Name, emp, want)
		}
	}
}

func TestMatrixComponentsExtendDefault(t *testing.T) {
	inj := New(rand.New(rand.NewSource(3)), MatrixComponents)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[inj.pick()]++
	}
	for _, name := range []string{"driver", "syscall"} {
		if counts[name] == 0 {
			t.Fatalf("matrix component %s never picked", name)
		}
	}
	// Adding plane components must dilute the TCP share below the
	// replica-only 46.2 %.
	if s := inj.TCPShare(); s >= 0.462 {
		t.Fatalf("matrix TCP share %.3f, want < 0.462", s)
	}
}

// drainableBed boots a minimal 2-replica NEaT system for injection tests.
func drainableBed(t *testing.T) (*testbed.Net, *core.System) {
	t.Helper()
	b, err := testbed.NewBed(sim.New(11), testbed.BedConfig{
		Server: testbed.AMD.Host(4),
		NEaT: testbed.NEaTConfig{
			Kind:    stack.Single,
			Slots:   testbed.SingleSlots(2, 2),
			Syscall: testbed.ThreadLoc{Core: 1},
		},
	})
	if err != nil {
		t.Fatalf("NewBed: %v", err)
	}
	return b.Net, b.NEaT
}

func TestInjectDrainedSystemNoPanic(t *testing.T) {
	net, sys := drainableBed(t)
	inj := New(net.Sim.Rand(), nil)

	// Live system: injection works.
	if _, ok := inj.Inject(sys); !ok {
		t.Fatal("injection on a live system failed")
	}

	// Drain it: quarantine every slot (the crashed replica included).
	for i := 0; i < 2; i++ {
		if err := sys.Quarantine(i); err != nil {
			t.Fatalf("quarantine slot %d: %v", i, err)
		}
	}
	if n := len(sys.Replicas()); n != 0 {
		t.Fatalf("system not drained: %d replicas", n)
	}

	// Replica-targeted injections must decline, not panic.
	if _, ok := inj.Inject(sys); ok {
		t.Fatal("Inject on a drained system reported ok")
	}
	if _, ok := inj.InjectKind(sys, KindCrash, "tcp"); ok {
		t.Fatal("InjectKind(tcp) on a drained system reported ok")
	}
	// The singleton system services remain injectable.
	if _, ok := New(net.Sim.Rand(), MatrixComponents).InjectKind(sys, KindHang, "driver"); !ok {
		t.Fatal("driver injection should not depend on replica state")
	}
	if !sys.Driver().Proc().Hung() {
		t.Fatal("driver hang not applied")
	}
}

// TestInjectKindRejectsUnknownComponent: a name missing from the
// injector's table injects nothing, rather than falling through to a
// replica's IP process.
func TestInjectKindRejectsUnknownComponent(t *testing.T) {
	_, sys := drainableBed(t)
	inj := New(rand.New(rand.NewSource(1)), MatrixComponents)
	if in, ok := inj.InjectKind(sys, KindCrash, "bogus"); ok {
		t.Fatalf("InjectKind(bogus) reported ok, injected into %s", in.Proc.Name)
	}
	// The default table has no driver: the §6.6 model injects into replicas only.
	if _, ok := New(rand.New(rand.NewSource(1)), nil).InjectKind(sys, KindCrash, "driver"); ok {
		t.Fatal("InjectKind(driver) reported ok on the replica-only table")
	}
	for _, k := range []Kind{KindCrash, KindHang, KindStorm} {
		if n := inj.Injected(k); n != 0 {
			t.Fatalf("%d %s faults counted after rejected names", n, k)
		}
	}
	for _, r := range sys.Replicas() {
		for _, p := range r.Procs() {
			if p.Dead() || p.Hung() {
				t.Fatalf("%s hit by a rejected injection", p.Name)
			}
		}
	}
}

func TestInjectKindHangAndStorm(t *testing.T) {
	net, sys := drainableBed(t)
	inj := New(net.Sim.Rand(), MatrixComponents)

	hi, ok := inj.InjectKind(sys, KindHang, "tcp")
	if !ok {
		t.Fatal("hang injection failed")
	}
	if !hi.Proc.Hung() || hi.Proc.Dead() {
		t.Fatal("hang target should be alive and hung")
	}

	si, ok := inj.InjectKind(sys, KindStorm, "syscall")
	if !ok {
		t.Fatal("storm injection failed")
	}
	if !si.Proc.Dead() {
		t.Fatal("storm target should be dead after the first strike")
	}
	// ReInject declines while the incarnation is still dead...
	if ReInject(sys, si) {
		t.Fatal("ReInject hit an already-dead incarnation")
	}
	// ...and hits again once it respawns.
	sys.Syscall().Restart()
	if !ReInject(sys, si) {
		t.Fatal("ReInject missed the respawned incarnation")
	}
}

func TestOutcomeStrings(t *testing.T) {
	if OutcomeTransparent.String() == OutcomeTCPLost.String() {
		t.Fatal("outcome names collide")
	}
}

func TestCustomComponents(t *testing.T) {
	inj := New(rand.New(rand.NewSource(1)), []Component{{Name: "only", Weight: 1}})
	if inj.pick() != "only" {
		t.Fatal("single component not picked")
	}
	if inj.TCPShare() != 0 {
		t.Fatal("no tcp component should mean zero share")
	}
}

func TestInjectedCountersByKind(t *testing.T) {
	net, sys := drainableBed(t)
	inj := New(net.Sim.Rand(), MatrixComponents)

	if _, ok := inj.Inject(sys); !ok {
		t.Fatal("Inject failed")
	}
	if _, ok := inj.InjectKind(sys, KindCrash, "ip"); !ok {
		t.Fatal("crash injection failed")
	}
	if _, ok := inj.InjectKind(sys, KindHang, "driver"); !ok {
		t.Fatal("hang injection failed")
	}
	si, ok := inj.InjectKind(sys, KindStorm, "syscall")
	if !ok {
		t.Fatal("storm injection failed")
	}
	// Storm repeats re-trigger the counted fault; the mix must not move.
	sys.Syscall().Restart()
	if !ReInject(sys, si) {
		t.Fatal("ReInject missed the respawned incarnation")
	}

	if got := inj.Injected(KindCrash); got != 2 {
		t.Fatalf("crash count = %d, want 2 (Inject counts as crash)", got)
	}
	if got := inj.Injected(KindHang); got != 1 {
		t.Fatalf("hang count = %d, want 1", got)
	}
	if got := inj.Injected(KindStorm); got != 1 {
		t.Fatalf("storm count = %d, want 1 (ReInject not re-counted)", got)
	}
}
