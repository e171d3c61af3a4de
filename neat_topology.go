package neat

// Topology facade: the classic two-machine testbed, declared as one value
// instead of hand-assembled. The multi-machine cluster tier is built by
// internal/experiments (NewClusterBed) over testbed.NewCluster.

import (
	"fmt"

	"neat/internal/sim"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// Testbed is a built two-machine topology: the classic single-link
// testbed, declared instead of hand-assembled.
type Testbed struct {
	Net          *Network
	Server       *Machine
	Client       *Machine
	System       *System // NEaT on the server
	ClientSystem *System
}

// TopologyConfig declares the classic two-machine testbed — one NEaT
// server, one load-generator client, one point-to-point link — as a
// single value.
type TopologyConfig struct {
	// Seed drives the deterministic simulation (default 1).
	Seed int64
	// Server selects the system-under-test machine model (default AMD12).
	Server MachineModel
	// ClientStacks is the client machine's replica count (default 1).
	ClientStacks int
	// System configures the NEaT system on the server.
	System SystemConfig
	// Tune, when non-nil, runs against the server system before the
	// client side boots (scale adjustments, fault arming), so its events
	// land before the client stack's boot events.
	Tune func(*System) error
}

// compile checks the topology's own fields and compiles the server system.
func (cfg TopologyConfig) compile() (testbed.NEaTConfig, error) {
	if cfg.ClientStacks < 0 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: TopologyConfig.ClientStacks is %d; want 0 (default 1) or a positive count", cfg.ClientStacks)
	}
	if cfg.Server != AMD12 && cfg.Server != Xeon8x2 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: TopologyConfig.Server is %d; want neat.AMD12 or neat.Xeon8x2", cfg.Server)
	}
	return compileSystem(cfg.System)
}

// Build reports the first configuration error — the testbed refuses a
// replica layout that does not fit the chosen server model — or boots the
// declared testbed
// through the testbed's one two-machine builder: the server machine (8 NIC queues) and the oversized client
// machine on one link, the NEaT system, Tune, then the client-side stack.
func (cfg TopologyConfig) Build() (*Testbed, error) {
	nc, err := cfg.compile()
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var tr *trace.Tracer
	if cfg.System.Observe {
		tr = trace.New()
	}
	b, err := testbed.NewBed(sim.New(seed), testbed.BedConfig{
		Trace:        tr,
		Server:       cfg.Server.Host(8),
		NEaT:         nc,
		Tune:         cfg.Tune,
		ClientStacks: cfg.ClientStacks,
	})
	if err != nil {
		return nil, err
	}
	return &Testbed{Net: b.Net, Server: b.Server, Client: b.Client,
		System: b.NEaT, ClientSystem: b.CliSys}, nil
}
