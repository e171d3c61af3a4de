package experiments

import (
	"strings"
	"testing"

	"neat/internal/core"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
)

// TestPoolsDrainAtQuiescence: every box a fault-free run takes from its
// simulators' free lists comes back. Each bed serves a short closed-loop
// load, its generators stop, and the simulation drains; then every
// sim.pool.<kind>.outstanding of the bed's registry must be zero. A
// consumer that forgets to Recycle a box fails here, naming the kind.
func TestPoolsDrainAtQuiescence(t *testing.T) {
	web := []core.ThreadLoc{{Core: 6}}
	for _, tc := range []struct {
		name string
		cfg  BedConfig
		// kinds must each have been counted: the bed exercises them.
		kinds []string
	}{
		{"neat", BedConfig{Kind: stack.Single, ReplicaSlots: testbed.SingleSlots(2, 2),
			SyscallLoc: core.ThreadLoc{Core: 1}, WebLocs: web},
			[]string{"batch", "ev_accepted", "ev_closed", "ev_data", "op_close", "op_send", "timer_fire", "tx_frame"}},
		{"multi-tso", BedConfig{Kind: stack.Multi, ReplicaSlots: testbed.MultiSlots(2, 1),
			SyscallLoc: core.ThreadLoc{Core: 1}, WebLocs: web, FileSize: 64 << 10, TSO: true},
			[]string{"ev_send_space", "ip_output", "ip_output_tso", "tx_tso"}},
		{"baseline", BedConfig{LinuxCores: 2, WebLocs: []core.ThreadLoc{{Core: 0}}},
			[]string{"ev_accepted", "ev_closed", "ev_data", "op_send"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Machine, cfg.ConnsPerGen, cfg.ReqPerConn = AMD, 8, 5
			b, err := NewBed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := b.Run(2*sim.Millisecond, 3*sim.Millisecond)
			if m.KRPS == 0 || m.Errors != 0 {
				t.Fatalf("%.1f krps, %d errors", m.KRPS, m.Errors)
			}
			for _, g := range b.Gens {
				g.Stop()
			}
			b.Net.Sim.Drain()
			r := b.Registry().Filter("sim.pool.")
			seen := map[string]bool{}
			for _, name := range r.CounterNames() {
				kind := strings.TrimSuffix(strings.TrimPrefix(name, "sim.pool."), ".outstanding")
				seen[kind] = true
				if n := r.Counter(name).Value(); n != 0 {
					t.Errorf("%s: %d boxes never returned to their free list", kind, int64(n))
				}
			}
			for _, k := range tc.kinds {
				if !seen[k] {
					t.Errorf("kind %s was never counted; seen %v", k, r.CounterNames())
				}
			}
		})
	}
}
