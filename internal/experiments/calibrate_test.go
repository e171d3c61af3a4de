package experiments

import (
	"testing"

	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// measure builds a bed and runs a quick measurement.
func measure(t *testing.T, cfg BedConfig) Measurement {
	t.Helper()
	o := Options{Quick: true}
	b, err := NewBed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b.Run(o.warm(), o.window())
}

// TestAnchorWebInstance checks anchor a1: one lighttpd ≈ 50 krps when the
// stack is not the bottleneck.
func TestAnchorWebInstance(t *testing.T) {
	m := measure(t, BedConfig{
		Machine: AMD, Kind: stack.Single,
		ReplicaSlots: testbed.SingleSlots(2, 3),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs:      []core.ThreadLoc{{Core: 5}},
		ConnsPerGen:  64,
	})
	t.Logf("1 web, 3 replicas: %.1f krps (errors=%d, mean=%v)", m.KRPS, m.Errors, m.MeanLat)
	if m.KRPS < 42 || m.KRPS > 60 {
		t.Fatalf("web anchor off: %.1f krps, want ≈50", m.KRPS)
	}
}

// TestAnchorSingleReplica checks anchor a2: one single-component replica
// saturates ≈125 krps with plenty of webs.
func TestAnchorSingleReplica(t *testing.T) {
	m := measure(t, BedConfig{
		Machine: AMD, Kind: stack.Single,
		ReplicaSlots: testbed.SingleSlots(2, 1),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs: []core.ThreadLoc{
			{Core: 3}, {Core: 4}, {Core: 5}, {Core: 6}, {Core: 7}, {Core: 8},
		},
		ConnsPerGen: 64,
	})
	t.Logf("6 webs, 1 replica: %.1f krps (errors=%d, mean=%v)", m.KRPS, m.Errors, m.MeanLat)
	if m.KRPS < 90 || m.KRPS > 160 {
		t.Fatalf("replica anchor off: %.1f krps, want ≈125", m.KRPS)
	}
}

// TestAnchorMultiReplica checks anchor a3: one multi-component replica
// (TCP on its own core) saturates ≈200 krps.
func TestAnchorMultiReplica(t *testing.T) {
	m := measure(t, BedConfig{
		Machine: AMD, Kind: stack.Multi,
		ReplicaSlots: testbed.MultiSlots(2, 1),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs: []core.ThreadLoc{
			{Core: 4}, {Core: 5}, {Core: 6}, {Core: 7}, {Core: 8}, {Core: 9},
		},
		ConnsPerGen: 64,
	})
	t.Logf("6 webs, 1 multi replica: %.1f krps (errors=%d)", m.KRPS, m.Errors)
	if m.KRPS < 160 || m.KRPS > 240 {
		t.Fatalf("multi anchor off: %.1f krps, want ≈200", m.KRPS)
	}
}

// TestAnchorLinuxAMD checks anchor a4: fully tuned Linux on 12 cores ≈ 224
// krps.
func TestAnchorLinuxAMD(t *testing.T) {
	m := measure(t, BedConfig{
		Machine:    AMD,
		LinuxCores: 12,
		LinuxTuning: baseline.Tuning{SchedDeadline: true, Ethtool: true,
			IRQAffinity: true, RxAffinity: true, ServerPinning: true},
		WebLocs:     coreRange(0, 12),
		ConnsPerGen: 128,
	})
	t.Logf("Linux 12-core tuned: %.1f krps (errors=%d)", m.KRPS, m.Errors)
	if m.KRPS < 190 || m.KRPS > 260 {
		t.Fatalf("Linux anchor off: %.1f krps, want ≈224", m.KRPS)
	}
}
