package neat

import (
	"reflect"
	"testing"

	"neat/internal/stack"
)

// TestOneCompilePath pins the one-translation rule: for every SystemConfig
// in the table, the NEaTConfig the two-machine Build boots and the one a
// one-member farm gets are the same value (the farm builder then adds only
// the member's ARP table and the forced-on watchdog), the machines both
// paths build have the same shape, and the systems they boot agree on
// everything a replica is configured with.
func TestOneCompilePath(t *testing.T) {
	cases := map[string]SystemConfig{
		"zero":      {},
		"multi-tso": {Replicas: 3, Kind: MultiComponent, TSO: true, Watchdog: true},
		"guards-and-cookies": {Guard: GuardConfig{SynBacklog: 32, HeaderDeadline: 5 * Millisecond,
			HeaderMinBytes: 16, IdleDeadline: Second, SynCookies: true, SynCookieWatermark: 8}},
		"ipc":      {Replicas: 4, IPC: IPCConfig{CoalesceWakes: true}},
		"steering": {Steering: SteeringConfig{Policy: "ring"}},
	}
	for name, sc := range cases {
		sc := sc
		t.Run(name, func(t *testing.T) {
			topo := TopologyConfig{System: sc}
			cluster := ClusterConfig{
				Farms:   []FarmConfig{{Name: "f", Members: 1, System: sc}},
				Clients: []ClientConfig{{}},
			}
			want, err := topo.compile()
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
			got := [2]hostShape{shapeOf(cl.Farms[0].Members[0].Host), shapeOf(cl.Clients[0].Host)}
			if want := [2]hostShape{shapeOf(tb.Server), shapeOf(tb.Client)}; got != want {
				t.Fatalf("farm member and cluster client are %+v, two-machine server and client %+v", got, want)
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

// hostShape is what a machine is built with, names and addresses aside.
type hostShape struct {
	cores, threadsPerCore, queues int
	freqHz                        int64
	driver                        [2]int // core, thread
}

func shapeOf(h *Machine) hostShape {
	drv := h.Driver.Proc().Thread()
	return hostShape{
		cores:          h.Machine.NumCores(),
		threadsPerCore: h.Machine.Core(0).NumThreads(),
		queues:         h.NIC.NumQueues(),
		freqHz:         h.Machine.FreqHz,
		driver:         [2]int{drv.Core().Index, drv.Index},
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
