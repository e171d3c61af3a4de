package testbed

import (
	"testing"

	"neat/internal/baseline"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
)

func TestHostsAndLayouts(t *testing.T) {
	n := New(1)
	amd := DefaultAMDHost(n, 0, 4)
	cli := DefaultClientHost(n, 1, 2)
	if amd.Machine.NumCores() != 12 || amd.Machine.FreqHz != 1_900_000_000 {
		t.Fatalf("AMD host: %d cores @%d", amd.Machine.NumCores(), amd.Machine.FreqHz)
	}
	if amd.NIC.NumQueues() != 4 {
		t.Fatalf("queues=%d", amd.NIC.NumQueues())
	}
	if cli.Machine.NumCores() < 16 {
		t.Fatalf("client too small: %d", cli.Machine.NumCores())
	}
	if amd.Thread(ThreadLoc{Core: 3}).Core().Index != 3 {
		t.Fatal("thread resolution")
	}
}

func TestXeonHostModel(t *testing.T) {
	n := New(1)
	x := DefaultXeonHost(n, 0, 2, ThreadLoc{Core: 0})
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

func TestBuildNEaTAndBaseline(t *testing.T) {
	n := New(1)
	amd := DefaultAMDHost(n, 0, 2)
	cli := DefaultClientHost(n, 1, 1)
	sys, err := amd.BuildNEaT(cli, NEaTConfig{
		Kind: stack.Single, TCP: tcpeng.DefaultConfig(),
		Slots: SingleSlots(2, 2), Syscall: ThreadLoc{Core: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumActive() != 2 {
		t.Fatalf("active=%d", sys.NumActive())
	}

	n2 := New(2)
	amd2 := DefaultAMDHost(n2, 0, 4)
	cli2 := DefaultClientHost(n2, 1, 1)
	bl, err := amd2.BuildBaseline(cli2, baseline.Tuning{}, tcpeng.DefaultConfig(), baseline.Costs{},
		[]ThreadLoc{{Core: 0}, {Core: 1}, {Core: 2}, {Core: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if bl.NumContexts() != 4 {
		t.Fatalf("contexts=%d", bl.NumContexts())
	}
	if _, err := cli2.BuildClientSystem(amd2, 1, tcpeng.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestLinkSpecShapesEveryAccessLink: the one link-shape declaration
// overrides only the fields it sets, and a cluster applies it to every
// machine's access link.
func TestLinkSpecShapesEveryAccessLink(t *testing.T) {
	n := New(1)
	rate, delay := n.Link.BitsPerSec, n.Link.PropDelay
	LinkSpec{}.Shape(n.Link)
	if n.Link.BitsPerSec != rate || n.Link.PropDelay != delay {
		t.Fatal("zero LinkSpec changed the default link")
	}
	if err := (LinkSpec{BitsPerSec: -1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}

	c, err := NewCluster(sim.New(1), ClusterSpec{
		Link:    LinkSpec{BitsPerSec: 40_000_000_000, PropDelay: 250 * sim.Nanosecond},
		Farms:   []FarmSpec{{Name: "f", Members: 2}},
		Clients: []ClientSpec{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*Host{c.Clients[0].Host}
	for _, m := range c.Farms[0].Members {
		hosts = append(hosts, m.Host)
	}
	for _, h := range hosts {
		if l := h.Net.Link; l.BitsPerSec != 40_000_000_000 || l.PropDelay != 250*sim.Nanosecond {
			t.Fatalf("%s access link is %d b/s, %v", h.Machine.Name, l.BitsPerSec, l.PropDelay)
		}
	}
}
