package neat

import (
	"reflect"
	"testing"

	"neat/internal/stack"
)

// TestOneCompilePath pins the one-translation rule: for every SystemConfig
// in the table, the NEaTConfig the two-machine Build boots and the one a
// one-member farm gets are the same value (the farm builder then adds only
// the member's ARP table and the forced-on watchdog), and the systems both
// paths boot agree on everything a replica is configured with.
func TestOneCompilePath(t *testing.T) {
	cases := map[string]SystemConfig{
		"zero": {},
		"multi-tso": {Replicas: 3, Kind: MultiComponent, FirstCore: 4, TSO: true,
			Watchdog: true},
		"guards-and-cookies": {Guard: GuardConfig{SynBacklog: 32, HeaderDeadline: 5 * Millisecond,
			HeaderMinBytes: 16, IdleDeadline: Second, MaxConnsPerSource: 64,
			SynCookies: true, SynCookieWatermark: 8}},
		"ipc":      {Replicas: 4, IPC: IPCConfig{RingDepth: 64, CoalesceWakes: true}},
		"steering": {Steering: SteeringConfig{Policy: "ring", RingVNodes: 16, DrainDeadline: Millisecond}},
	}
	for name, sc := range cases {
		sc := sc
		t.Run(name, func(t *testing.T) {
			topo := TopologyConfig{System: sc}
			cluster := ClusterConfig{
				Farms:   []FarmConfig{{Name: "f", Members: 1, System: sc}},
				Clients: []ClientConfig{{}},
			}
			want, err := topo.compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := cluster.spec(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := spec.Farms[0].NEaT; !reflect.DeepEqual(got, want) {
				t.Fatalf("farm member compiles to\n%+v\ntwo-machine server to\n%+v", got, want)
			}
			if want.IPC != sc.IPC || want.TCP.Guard != sc.Guard || want.TCP.TSO != sc.TSO {
				t.Fatalf("compileSystem dropped a knob: %+v from %+v", want, sc)
			}

			tb, err := topo.Build()
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.Build()
			if err != nil {
				t.Fatal(err)
			}
			two, member := tb.System, cl.Farms[0].Members[0].Sys
			if a, b := two.Placer().Name(), member.Placer().Name(); a != b {
				t.Fatalf("placers differ: %s vs %s", a, b)
			}
			if member.Watchdog() == nil {
				t.Fatal("farm member boots without its watchdog")
			}
			ra, rb := two.Replicas(), member.Replicas()
			if len(ra) != len(rb) {
				t.Fatalf("%d replicas vs %d", len(ra), len(rb))
			}
			for i := range ra {
				if ra[i].Kind() != rb[i].Kind() {
					t.Fatalf("replica %d kind %v vs %v", i, ra[i].Kind(), rb[i].Kind())
				}
				if a, b := ra[i].TCP().Config(), rb[i].TCP().Config(); a != b {
					t.Fatalf("replica %d TCP config\n%+v\nvs\n%+v", i, a, b)
				}
				if a, b := coresOf(ra[i]), coresOf(rb[i]); !reflect.DeepEqual(a, b) {
					t.Fatalf("replica %d placed on %v vs %v", i, a, b)
				}
			}
		})
	}
}

// coresOf lists the core index each of a replica's processes runs on.
func coresOf(r *stack.Replica) []int {
	var cores []int
	for _, p := range r.Procs() {
		cores = append(cores, p.Thread().Core().Index)
	}
	return cores
}
