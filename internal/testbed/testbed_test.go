package testbed

import (
	"testing"

	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/trace"
)

// bed boots a two-machine bed on a fresh simulator, failing the test on
// an error.
func bed(t *testing.T, seed int64, cfg BedConfig) *Bed {
	t.Helper()
	b, err := NewBed(sim.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// twoReplicas is a two-replica single-component system on cores 2-3.
var twoReplicas = NEaTConfig{Kind: stack.Single, Slots: SingleSlots(2, 2), Syscall: ThreadLoc{Core: 1}}

func TestHostsAndLayouts(t *testing.T) {
	b := bed(t, 1, BedConfig{Server: AMD.Host(4), NEaT: twoReplicas, ClientStacks: 2})
	amd, cli := b.Server, b.Client
	if amd.Machine.NumCores() != 12 || amd.Machine.FreqHz != 1_900_000_000 {
		t.Fatalf("AMD host: %d cores @%d", amd.Machine.NumCores(), amd.Machine.FreqHz)
	}
	if amd.NIC.NumQueues() != 4 {
		t.Fatalf("queues=%d", amd.NIC.NumQueues())
	}
	if cli.Machine.NumCores() < 16 || cli.NIC.NumQueues() != 2 {
		t.Fatalf("client too small: %d cores, %d queues", cli.Machine.NumCores(), cli.NIC.NumQueues())
	}
	if amd.Thread(ThreadLoc{Core: 3}) != amd.Machine.Thread(3, 0) {
		t.Fatal("thread resolution")
	}
}

func TestXeonHostModel(t *testing.T) {
	x := bed(t, 1, BedConfig{Server: Xeon.Host(2), NEaT: twoReplicas}).Server
	if x.Machine.NumCores() != 8 || x.Machine.Core(0).NumThreads() != 2 {
		t.Fatalf("xeon topology: %d cores × %d threads",
			x.Machine.NumCores(), x.Machine.Core(0).NumThreads())
	}
	if x.Machine.FreqHz != 2_260_000_000 {
		t.Fatalf("freq=%d", x.Machine.FreqHz)
	}
}

func TestSlotHelpers(t *testing.T) {
	s := SingleSlots(2, 3)
	if len(s) != 3 || s[2][0].Core != 4 {
		t.Fatalf("single slots: %v", s)
	}
	m := MultiSlots(2, 2)
	if len(m) != 2 || len(m[1]) != 2 || m[1][0].Core != 4 || m[1][1].Core != 5 {
		t.Fatalf("multi slots: %v", m)
	}
}

// TestBuildNEaTAndBaseline: the one two-machine builder boots NEaT with
// its tracer on the server, or the baseline when LinuxCores is set, and
// the untraced client system either way.
func TestBuildNEaTAndBaseline(t *testing.T) {
	tr := trace.New()
	b := bed(t, 1, BedConfig{Trace: tr, Server: AMD.Host(2), NEaT: twoReplicas})
	if b.NEaT.NumActive() != 2 || b.Linux != nil {
		t.Fatalf("active=%d, baseline %v", b.NEaT.NumActive(), b.Linux)
	}
	if b.NEaT.Trace() != tr || b.CliSys.Trace() != nil {
		t.Fatal("the tracer must reach the server system and only it")
	}

	b = bed(t, 2, BedConfig{Server: AMD.Host(4), NEaT: NEaTConfig{TCP: tcpeng.DefaultConfig()}, LinuxCores: 4})
	if b.NEaT != nil || b.Linux.NumContexts() != 4 {
		t.Fatalf("NEaT %v, baseline contexts %d", b.NEaT, b.Linux.NumContexts())
	}
	if b.CliSys == nil {
		t.Fatal("no client system over the baseline")
	}
}
