package neat

// Cluster facade: a declarative topology API over the multi-machine
// testbed. A ClusterConfig names machines, links, a switch, server farms
// and tenants; Build compiles it to a running simulated datacenter — one
// store-and-forward switch, one access link per machine, L4 virtual
// services steering each farm's flows across its member machines with the
// same placement policies that steer flows across replicas within a
// machine. TopologyConfig (below) is the short path for single-link work;
// a cluster is what you reach for when the question spans machines:
// farm-level steering, cross-machine failover, multi-tenant isolation.

import (
	"fmt"

	"neat/internal/sim"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// Cluster is a running cluster topology (see ClusterConfig.Build).
type Cluster = testbed.Cluster

// Farm is one running server farm: member machines behind a shared VIP.
type Farm = testbed.Farm

// FarmMember is one running server machine of a farm.
type FarmMember = testbed.FarmMember

// FarmEvent is one farm-controller decision (a member declared dead).
type FarmEvent = testbed.FarmEvent

// FarmEventKind enumerates farm-controller lifecycle events.
type FarmEventKind = testbed.FarmEventKind

// Farm controller events.
const (
	FarmMemberDead = testbed.FarmMemberDead
)

// ClusterConfig declares a cluster topology. The zero values of every
// field are a working choice; the minimum viable config is one farm and
// one client:
//
//	cluster, _ := neat.ClusterConfig{
//		Farms:   []neat.FarmConfig{{Name: "web", Members: 2}},
//		Clients: []neat.ClientConfig{{}},
//	}.Build()
//	cluster.Sim.RunFor(10 * neat.Millisecond)
type ClusterConfig struct {
	// Seed drives the deterministic simulation (default 1).
	Seed int64
	// Switch shapes the one switch of the star topology.
	Switch SwitchConfig
	// Link shapes every machine's access link.
	Link LinkConfig
	// Farms are the server farms (at least one).
	Farms []FarmConfig
	// Clients are the load-generator machines (at least one).
	Clients []ClientConfig
	// Observe attaches one message tracer to the whole cluster before
	// boot and hands it to every member system, so any member's
	// Sys.Trace() reaches the per-hop latency spans and the lifecycle
	// timeline.
	// Setting a farm's System.Observe does the same: a simulator has one
	// tracer, never one per member.
	Observe bool
}

// SwitchConfig shapes the cluster switch: Name (default "tor") and the
// per-frame store-and-forward Latency (default 1 µs). Declared in
// internal/testbed beside the cluster builder.
type SwitchConfig = testbed.SwitchSpec

// LinkConfig shapes the per-machine access links: BitsPerSec (default
// 10 Gb/s) and PropDelay (default 1 µs). Declared in internal/testbed
// beside the link builder.
type LinkConfig = testbed.LinkSpec

// FarmConfig declares one server farm: Members identical NEaT machines
// behind a shared virtual IP, load-balanced by an L4 service on the
// switch (direct-server-return: the service rewrites only the destination
// MAC, replies bypass it).
type FarmConfig struct {
	// Name labels the farm (required, unique across the cluster).
	Name string
	// Tenant is the owning tenant ("" is the default tenant). A tenant's
	// clients can reach only its own farms' VIPs, and every farm steers
	// with its own placer over its own members — disjoint steering
	// domains and replica sets on shared hardware.
	Tenant string
	// Members is the machine count (required, ≥ 1).
	Members int
	// System configures each member machine's NEaT system, exactly as
	// TopologyConfig.System does for a two-machine server (one compile
	// path; members are 12-core AMD machines with 8 NIC queues). The
	// watchdog is always on regardless of System.Watchdog: its
	// heartbeat counters are the farm controller's cross-machine
	// liveness signal.
	System SystemConfig
	// Steering is the farm-level placement policy spreading flows
	// across member machines (default "hash"). It must be deterministic
	// — "hash" or "ring", not "least-loaded" — so that a cluster run is
	// engine-independent.
	Steering SteeringConfig
}

// ClientConfig declares one load-generator machine.
type ClientConfig struct {
	// Tenant selects which farms this client can reach ("" = default
	// tenant). The tenant must own at least one farm.
	Tenant string
	// Stacks is the client-side replica count (default 1).
	Stacks int
}

// spec compiles the declarative config to the testbed's resolved form and
// validates the result. tr is the cluster's one tracer when tracing was
// asked for (nil from Validate); it reaches the members of every farm that
// asked, or all of them under ClusterConfig.Observe.
func (cfg ClusterConfig) spec(tr *trace.Tracer) (testbed.ClusterSpec, error) {
	spec := testbed.ClusterSpec{Switch: cfg.Switch, Link: cfg.Link}
	for _, f := range cfg.Farms {
		var memberTrace *trace.Tracer
		if cfg.Observe || f.System.Observe {
			memberTrace = tr
		}
		nc, err := compileSystem(f.System, AMD12.Cores())
		if err != nil {
			return spec, fmt.Errorf("neat: farm %q: %v", f.Name, err)
		}
		steering, err := f.Steering.compile()
		if err != nil {
			return spec, fmt.Errorf("neat: farm %q: Steering.%v", f.Name, err)
		}
		spec.Farms = append(spec.Farms, testbed.FarmSpec{
			Name:     f.Name,
			Tenant:   f.Tenant,
			Members:  f.Members,
			NEaT:     nc,
			Trace:    memberTrace,
			Steering: steering,
		})
	}
	for _, cl := range cfg.Clients {
		spec.Clients = append(spec.Clients, testbed.ClientSpec{
			Tenant: cl.Tenant,
			Stacks: cl.Stacks,
		})
	}
	return spec, spec.Validate()
}

// Validate reports the first configuration error, with enough context to
// fix it. Build calls it; call it directly to check a config assembled
// from user input.
func (cfg ClusterConfig) Validate() error {
	_, err := cfg.spec(nil)
	return err
}

// Build boots the cluster: its own simulator, the switch, every farm
// member and client machine, the L4 services, and one controller loop per
// farm. Drive it through Cluster.Sim and observe it through
// Cluster.Events, Farm.Service and each member's System.
func (cfg ClusterConfig) Build() (*Cluster, error) {
	var tr *trace.Tracer
	observed := cfg.Observe
	for _, f := range cfg.Farms {
		observed = observed || f.System.Observe
	}
	if observed {
		tr = trace.New()
	}
	spec, err := cfg.spec(tr)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := sim.New(seed)
	return testbed.NewCluster(s, spec)
}

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

// compile checks the topology's own fields and compiles the server system
// against the chosen model's core count.
func (cfg TopologyConfig) compile() (testbed.NEaTConfig, error) {
	if cfg.ClientStacks < 0 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: TopologyConfig.ClientStacks is %d; want 0 (default 1) or a positive count", cfg.ClientStacks)
	}
	if cfg.Server != AMD12 && cfg.Server != Xeon8x2 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: TopologyConfig.Server is %d; want neat.AMD12 or neat.Xeon8x2", cfg.Server)
	}
	return compileSystem(cfg.System, cfg.Server.Cores())
}

// Validate reports the first configuration error, a replica layout that
// does not fit the chosen server model included. Build calls it.
func (cfg TopologyConfig) Validate() error {
	_, err := cfg.compile()
	return err
}

// Build boots the declared testbed through the testbed's one two-machine
// builder: the server machine (8 NIC queues) and the oversized client
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
