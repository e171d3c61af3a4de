package neat

import (
	"testing"
)

// TestOneCompilePath pins the one-translation rule: for every SystemConfig
// in the table, compileSystem carries each knob into the NEaTConfig the
// two-machine Build boots, and the booted system agrees with that
// NEaTConfig on everything a replica is configured with.
func TestOneCompilePath(t *testing.T) {
	cases := map[string]SystemConfig{
		"zero":      {},
		"multi-tso": {Replicas: 3, Kind: MultiComponent, TSO: true, Watchdog: true},
		"guards-and-cookies": {Guard: GuardConfig{SynBacklog: 32, HeaderDeadline: 5 * Millisecond,
			HeaderMinBytes: 16, IdleDeadline: 1000 * Millisecond, SynCookies: true, SynCookieWatermark: 8}},
		"ipc":      {Replicas: 4, IPC: IPCConfig{CoalesceWakes: true}},
		"steering": {Steering: SteeringConfig{Policy: "ring"}},
	}
	for name, sc := range cases {
		sc := sc
		t.Run(name, func(t *testing.T) {
			topo := TopologyConfig{System: sc}
			want, err := topo.compile()
			if err != nil {
				t.Fatal(err)
			}
			steering, err := sc.Steering.compile()
			if err != nil {
				t.Fatal(err)
			}
			if want.IPC != sc.IPC || want.TCP.Guard != sc.Guard || want.TCP.TSO != sc.TSO ||
				want.Kind != sc.Kind || want.Watchdog != sc.Watchdog || want.Steering != steering {
				t.Fatalf("compileSystem dropped a knob: %+v from %+v", want, sc)
			}

			tb, err := topo.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys := tb.System
			if (sys.Watchdog() != nil) != sc.Watchdog {
				t.Fatalf("watchdog %v, want %v", sys.Watchdog() != nil, sc.Watchdog)
			}
			replicas := sys.Replicas()
			if len(replicas) != len(want.Slots) {
				t.Fatalf("%d replicas, want %d", len(replicas), len(want.Slots))
			}
			for i, r := range replicas {
				if r.Kind() != want.Kind {
					t.Fatalf("replica %d kind %v, want %v", i, r.Kind(), want.Kind)
				}
				got := r.TCP().Config()
				got.EphemeralLo, got.EphemeralHi = want.TCP.EphemeralLo, want.TCP.EphemeralHi // each replica owns a slice of the range
				if got != want.TCP {
					t.Fatalf("replica %d TCP config\n%+v\nwant\n%+v", i, got, want.TCP)
				}
				for j, p := range r.Procs() {
					if p.Thread() != tb.Server.Thread(want.Slots[i][j]) {
						t.Fatalf("replica %d process %d is not on slot thread %+v", i, j, want.Slots[i][j])
					}
				}
			}
		})
	}
}
