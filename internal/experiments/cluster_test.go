package experiments

import (
	"fmt"
	"strings"
	"testing"

	"neat/internal/core"
	"neat/internal/faultinject"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// TestClusterBedTracesEveryMember: an observed cluster bed has one tracer,
// attached to the simulator and handed to every member system, so the
// members' lifecycle events land on it.
func TestClusterBedTracesEveryMember(t *testing.T) {
	b, err := NewClusterBed(ClusterBedConfig{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace == nil {
		t.Fatal("Observe: true but the bed has no tracer")
	}
	replicas := 0
	for _, f := range b.Cluster.Farms {
		for mi, m := range f.Members {
			if m.Sys.Trace() != b.Trace {
				t.Fatalf("farm %s member %d traces to %p, not the bed's tracer %p", f.Name, mi, m.Sys.Trace(), b.Trace)
			}
			replicas += len(m.Sys.Replicas())
		}
	}
	count := func(kind string) int {
		n := 0
		for _, ev := range b.Trace.Events() {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}
	if n := count("spawn"); n != replicas {
		t.Fatalf("%d spawn events, want one per member replica (%d)", n, replicas)
	}
	sys := b.Cluster.Farms[0].Members[0].Sys
	sys.Replicas()[0].Procs()[0].Crash(faultinject.ErrInjected)
	b.Sim.RunFor(5 * sim.Millisecond)
	if count("recover") == 0 {
		t.Fatalf("no recover event after crashing farm0 member 0's tcp; events: %+v", b.Trace.Events())
	}
}

// TestClusterDeterminism checks the one PDES contract left outside
// internal/sim, the one the benchmark's traced cluster pass reports a
// problem on: a bed in the benchmark's shape (three replicas per member,
// seed 7) measures the same under 1 and 2 PDES workers. That the campaign
// is a pure function of its seed is TestCampaignDeterminism's.
func TestClusterDeterminism(t *testing.T) {
	run := func(workers int) string {
		b, err := NewClusterBed(ClusterBedConfig{
			Seed: 7, PDESWorkers: workers, ReplicasPerMember: 3,
			ConnsPerGen: 16, FileSize: 64, Timeout: 20 * sim.Millisecond,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m := b.Run(5*sim.Millisecond, 10*sim.Millisecond)
		if m.KRPS == 0 {
			t.Fatalf("workers=%d: the bed served nothing", workers)
		}
		return fmt.Sprintf("%+v per-farm %v", m, b.farmGoodput())
	}
	if w1, w2 := run(1), run(2); w1 != w2 {
		t.Fatalf("PDES-1 and PDES-2 cluster beds diverged:\n%s\nvs\n%s", w1, w2)
	}
}

// runFailover drives the default 3-farm bed; if kill is true, farm 0's
// member 1 machine dies mid-window (hung kernel: every process livelocks,
// the switch port goes dark). The short client timeout lets connections
// stuck on the dead machine recycle within the window. Returns per-farm
// (goodResponses, connErrors, discardedResponses).
func runFailover(t *testing.T, kill bool) (*ClusterBed, [3]uint64, [3]uint64, [3]uint64) {
	t.Helper()
	b, err := NewClusterBed(ClusterBedConfig{
		Seed: 1, ConnsPerGen: 2, ReqPerConn: 20,
		Timeout: 5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Sim.RunFor(10 * sim.Millisecond)
	for _, g := range b.Gens {
		g.BeginMeasure()
	}
	if kill {
		// An off-beat instant: not a multiple of the watchdog probe
		// interval or the farm controller tick.
		b.Sim.After(3*sim.Millisecond+137*sim.Microsecond, func() {
			b.Cluster.KillMachine(0, 1)
		})
	}
	b.Sim.RunFor(40 * sim.Millisecond)
	var good, errs, disc [3]uint64
	for i, g := range b.Gens {
		st := g.Stats()
		f := b.GenFarm[i]
		good[f] += g.GoodResponses()
		errs[f] += st.ConnErrors
		disc[f] += st.WindowDiscarded
	}
	return b, good, errs, disc
}

// TestClusterFailover kills one server machine mid-run and checks the
// cross-machine failover contract: the farm controller declares the
// machine dead from its stalled watchdog heartbeats, the untouched
// tenant's farm keeps exactly the goodput of an undisturbed run, and no
// surviving connection loses bytes — only connections pinned to the dead
// machine are discarded.
func TestClusterFailover(t *testing.T) {
	_, baseGood, baseErrs, _ := runFailover(t, false)
	b, good, errs, disc := runFailover(t, true)

	// The farm controller must have declared farm 0's member 1 dead —
	// and nothing else.
	var declared bool
	for _, ev := range b.Cluster.Events() {
		if ev.Kind == testbed.FarmMemberDead {
			if ev.Farm != "farm0" || ev.Member != 1 {
				t.Fatalf("wrong member declared dead: %+v", ev)
			}
			declared = true
		}
	}
	if !declared {
		t.Fatalf("farm controller never declared the killed machine dead; events: %+v", b.Cluster.Events())
	}
	if b.Cluster.Farms[0].Members[1].Alive() {
		t.Fatal("killed member still marked alive")
	}

	// No clean farm sees an error or a discarded (partial) response:
	// zero lost bytes outside the blast radius.
	for f := 1; f <= 2; f++ {
		if errs[f] != 0 || baseErrs[f] != 0 {
			t.Fatalf("clean farm %d saw connection errors: %d (baseline %d)", f, errs[f], baseErrs[f])
		}
		if disc[f] != 0 {
			t.Fatalf("clean farm %d discarded %d responses", f, disc[f])
		}
	}
	// Farm 1 belongs to the other tenant — no shared client machines, no
	// shared farm machines, so its goodput is byte-for-byte that of the
	// undisturbed run.
	if good[1] != baseGood[1] {
		t.Fatalf("isolated tenant's farm goodput %d != undisturbed %d", good[1], baseGood[1])
	}
	// Farm 2 shares client machines with farm 0's generators (same
	// tenant), so retransmission work on those machines shifts its timing
	// by a few responses either way — but every response it did serve was
	// complete (zero discards above), and throughput stays whole.
	if good[2] < baseGood[2]-baseGood[2]/100 {
		t.Fatalf("same-tenant clean farm goodput %d well under undisturbed %d", good[2], baseGood[2])
	}

	// The wounded farm: connections pinned to the dead machine error
	// (their state died with it — the paper's partitioning boundary, at
	// machine granularity), but the survivor keeps serving.
	if errs[0] == 0 {
		t.Fatal("no connection errors on the wounded farm; kill had no effect")
	}
	if good[0] == 0 {
		t.Fatal("wounded farm lost all goodput; the survivor should keep serving")
	}
	if st := b.Cluster.Farms[0].Service.Stats(); st.DropDown == 0 {
		t.Fatal("no frames dropped toward the dead backend")
	}
	// New flows re-place onto the survivor; the service never reaches
	// zero active backends.
	if n := b.Cluster.Farms[0].Service.NumActive(); n != 1 {
		t.Fatalf("wounded farm has %d active backends, want 1", n)
	}
}

// TestClusterTenantIsolation checks the steering-domain boundary: every
// farm serves exactly its own tenant's generators (the ARP walls hold —
// the topology cannot even express a cross-tenant connection), and each
// service carries its tenant's label.
func TestClusterTenantIsolation(t *testing.T) {
	b, err := NewClusterBed(ClusterBedConfig{Seed: 1, ConnsPerGen: 2, ReqPerConn: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range b.Gens {
		g.Start()
	}
	b.Sim.RunFor(5 * sim.Millisecond)
	for _, g := range b.Gens {
		g.BeginMeasure()
	}
	b.Sim.RunFor(10 * sim.Millisecond)
	perFarm := b.farmGoodput()
	for fi, f := range b.Cluster.Farms {
		var want uint64
		for i, g := range b.Gens {
			if b.GenFarm[i] == fi {
				want += g.GoodResponses()
			}
		}
		if perFarm[fi] != want {
			t.Fatalf("farm %d (%s) goodput %d != its tenant's generators %d",
				fi, f.Tenant, perFarm[fi], want)
		}
		if perFarm[fi] == 0 {
			t.Fatalf("farm %d (%s) served nothing", fi, f.Tenant)
		}
	}
}

// TestClusterSpecValidation exercises the actionable-error surface: each
// invalid spec fails NewCluster with a message naming the problem, and the
// minimal spec boots.
func TestClusterSpecValidation(t *testing.T) {
	farm := []testbed.FarmSpec{{Name: "f", Members: 1}}
	client := []testbed.ClientSpec{{}}
	cases := []struct {
		name    string
		spec    testbed.ClusterSpec
		wantErr string // empty = valid
	}{
		{"minimal", testbed.ClusterSpec{Farms: farm, Clients: client}, ""},
		{"no-farms", testbed.ClusterSpec{Clients: client}, "farm"},
		{"no-clients", testbed.ClusterSpec{Farms: farm}, "client"},
		{"unnamed-farm", testbed.ClusterSpec{Farms: []testbed.FarmSpec{{Members: 1}}, Clients: client}, "no name"},
		{"zero-members", testbed.ClusterSpec{Farms: []testbed.FarmSpec{{Name: "f"}}, Clients: client}, "members"},
		{"duplicate-name", testbed.ClusterSpec{Farms: []testbed.FarmSpec{{Name: "f", Members: 1}, {Name: "f", Members: 1}},
			Clients: client}, "duplicate"},
		{"ghost-tenant", testbed.ClusterSpec{Farms: farm, Clients: []testbed.ClientSpec{{Tenant: "ghost"}}}, "tenant"},
		// 6 multi-component replicas need cores 2..13 on the 12-core member.
		{"oversized-member-layout", testbed.ClusterSpec{Farms: []testbed.FarmSpec{{Name: "f", Members: 1,
			NEaT: core.Config{Kind: stack.Multi, Slots: testbed.MultiSlots(2, 6), Syscall: core.ThreadLoc{Core: 1}}}},
			Clients: client}, "12 cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := testbed.NewCluster(sim.New(1), tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewCluster() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterObserveSharesOneTracer: under load, an observed cluster bed's
// one tracer records the per-hop spans of every tier and the members'
// lifecycle events.
func TestClusterObserveSharesOneTracer(t *testing.T) {
	b, err := NewClusterBed(ClusterBedConfig{Farms: 2, Clients: 1, Tenants: 1, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range b.Cluster.Farms {
		for mi, m := range f.Members {
			if m.Sys.Trace() != b.Trace {
				t.Fatalf("farm %s member %d has its own tracer (or none)", f.Name, mi)
			}
		}
	}
	b.Run(sim.Millisecond, 5*sim.Millisecond)
	if len(b.Trace.Breakdown()) == 0 {
		t.Fatal("the shared tracer recorded no spans: it is not attached to the simulator")
	}
	if len(b.Trace.Events()) == 0 {
		t.Fatal("the shared tracer holds no lifecycle events from the member systems")
	}
}

// TestFarmMemberHonoursIPC: ClusterBedConfig.IPC reaches every farm
// member; with CoalesceWakes a loaded member saves doorbells, without it
// none is saved anywhere in the simulation.
func TestFarmMemberHonoursIPC(t *testing.T) {
	saved := func(tuning ipc.Tuning) uint64 {
		b, err := NewClusterBed(ClusterBedConfig{Farms: 1, Clients: 1, Tenants: 1, ConnsPerGen: 16, IPC: tuning})
		if err != nil {
			t.Fatal(err)
		}
		if m := b.Run(sim.Millisecond, 10*sim.Millisecond); m.KRPS == 0 {
			t.Fatal("the farm served no responses")
		}
		return b.Sim.IPCStats().WakesSaved
	}
	if n := saved(ipc.Tuning{CoalesceWakes: true}); n == 0 {
		t.Fatal("CoalesceWakes on a farm member saved no wakes under load")
	}
	if n := saved(ipc.Tuning{}); n != 0 {
		t.Fatalf("default IPC tuning saved %d wakes; coalescing should be off", n)
	}
}

// TestClusterLadderScale checks the -scale knob multiplies every rung.
func TestClusterLadderScale(t *testing.T) {
	o := Options{Quick: true, Scale: 3}
	pts, err := clusterLadder(o, []int{2}, o.clusterScale())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].ConnsPerGen != 6 {
		t.Fatalf("scale 3 on rung 2 gave conns/gen %d, want 6", pts[0].ConnsPerGen)
	}
	// 6 generators (tenant0: clients 0,2 × farms 0,2; tenant1: clients
	// 1,3 × farm 1) × 6 connections each.
	if pts[0].Aggregate != 36 {
		t.Fatalf("aggregate %d, want 36", pts[0].Aggregate)
	}
}
