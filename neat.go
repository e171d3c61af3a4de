// Package neat is the public facade of this repository: a faithful,
// simulation-backed reproduction of "A NEaT Design for Reliable and
// Scalable Network Stacks" (Hruby et al., CoNEXT 2016).
//
// NEaT partitions a BSD-socket network stack across N fully isolated
// replicas — single-threaded, event-driven processes that never share
// state and never talk to each other — and steers each TCP connection to
// exactly one replica using the NIC's flow-director filters and RSS
// hashing. The payoff is reliability (a crashing replica loses only its
// own connections and is respawned statelessly), scalability (no locks,
// no shared cache lines) and, as a by-product, address-space
// re-randomization across connections.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's testbed (machines, cores, hyperthreads, a multi-queue 10G NIC,
// a 10GbE link), with a real TCP/IP protocol suite doing real byte-level
// work. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured results.
//
// Quick start (see examples/quickstart for the full program):
//
//	tb, _ := neat.TopologyConfig{
//		Seed:   42,
//		System: neat.SystemConfig{Replicas: 3},
//	}.Build()
//	// tb.Server / tb.Client are the machines, tb.System the NEaT stack,
//	// tb.ClientSystem the load generator's stack; place applications on
//	// tb.Server.AppThread(n) and drive the world with tb.Net.Sim.RunFor.
//
// Every knob group is declared once, in the internal package that consumes
// it, with its Validate beside it; the facade re-exports it by alias
// (IPCConfig, GuardConfig). One function, compileSystem, turns a
// SystemConfig into what the testbed boots. The multi-machine cluster tier
// (switch, farms, tenants) is not part of the facade: neat-bench -only
// cluster and internal/experiments.NewClusterBed drive it.
package neat

import (
	"fmt"

	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// Re-exported building blocks. The internal packages carry the full API;
// the facade covers the workflows the examples and tools need.

// Network is a two-machine simulated network (one 10GbE link).
type Network = testbed.Net

// Machine is a host with its NIC and driver.
type Machine = testbed.Host

// System is a running NEaT network stack.
type System = core.System

// Observability. The unified API has three layers, all reached through
// the facade (examples and tools should not import the internal packages
// directly):
//
//   - System.Metrics() returns a Registry: every counter, gauge and
//     histogram of the system, pulled on demand from the live components
//     (zero cost until asked).
//   - SystemConfig{Observe: true} attaches a Tracer before boot; then
//     System.Trace().Breakdown() gives per-hop queueing-vs-processing
//     latency Spans and System.Trace().Events() the lifecycle timeline
//     (spawns, detections, escalations, RSS rebinds, recoveries).
//   - Tracing is opt-in and free when off: an untraced system runs the
//     exact same instruction path as one built before this API existed.

// Registry is a named collection of counters, gauges and histograms.
type Registry = metrics.Registry

// Histogram is a power-of-two-bucketed latency/value histogram.
type Histogram = metrics.Histogram

// Tracer records per-message spans and lifecycle events.
type Tracer = trace.Tracer

// Span aggregates one hop of the message path: how long messages queued
// there and how long the hop spent processing them.
type Span = trace.Span

// Breakdown is the per-hop latency table, ordered along the packet path
// (wire → NIC → driver → stack components → SYSCALL → application).
type Breakdown = trace.Breakdown

// TraceEvent is one timestamped lifecycle event.
type TraceEvent = trace.Event

// Table is a formatted report table (what Breakdown.Table and Timeline
// return; print with String()).
type Table = report.Table

// Timeline renders lifecycle events as a simulated-time-ordered table.
func Timeline(events []TraceEvent, title string) *Table {
	return trace.Timeline(events, title)
}

// CPUSampler measures per-core utilization over a simulated window.
type CPUSampler = metrics.CPUSampler

// NewCPUSampler starts sampling machine m's cores now.
func NewCPUSampler(m *Machine) *CPUSampler {
	return metrics.NewCPUSampler(m.Machine)
}

// ReplicaKind selects single- or multi-component replicas.
type ReplicaKind = stack.Kind

// Replica kinds.
const (
	SingleComponent = stack.Single
	MultiComponent  = stack.Multi
)

// MachineModel selects one of the paper's testbed machines. Declared in
// internal/testbed with each model's shape.
type MachineModel = testbed.MachineModel

// Supported machine models.
const (
	// AMD12 is the 12-core 1.9 GHz AMD Opteron 6168.
	AMD12 = testbed.AMD
	// Xeon8x2 is the 8-core 2.26 GHz Xeon E5520 with 2-way SMT.
	Xeon8x2 = testbed.Xeon
)

// Addr is an IPv4 address.
type Addr = proto.Addr

// IPv4 builds an address from octets.
func IPv4(a, b, c, d byte) Addr { return proto.IPv4(a, b, c, d) }

// Time is simulated time in nanoseconds.
type Time = sim.Time

// Millisecond is one millisecond of simulated time.
const Millisecond = sim.Millisecond

// SystemConfig configures the NEaT system on the server of a
// TopologyConfig. Replicas start at core 2:
// core 0 hosts the NIC driver and core 1 the SYSCALL server. The zero value
// is a working system: two single-component replicas on cores 2 and 3, no TSO,
// the paper's instantaneous crash oracle for failure detection, and no
// observability instruments attached.
type SystemConfig struct {
	// Replicas is the partition count (default 2). The testbed NICs
	// expose 8 RX/TX queue pairs, so at most 8 replicas are steerable.
	Replicas int
	// Kind selects single- (default) or multi-component replicas.
	// Multi-component replicas occupy two consecutive cores each.
	Kind ReplicaKind
	// TSO enables TCP segmentation offload (default off, as in the
	// paper's headline configurations).
	TSO bool
	// Watchdog switches failure detection from the instantaneous crash
	// oracle to heartbeat probing with the escalation ladder (§ watchdog
	// in DESIGN.md). Default off: the oracle matches the paper's
	// methodology.
	Watchdog bool
	// Observe attaches the observability layer before boot: a message
	// tracer on the whole simulated network plus the lifecycle event
	// timeline, reachable via System.Trace(). Default off; an untraced
	// system pays zero observation cost.
	Observe bool
	// Steering configures the flow placement plane: which replica a new
	// flow's packets are hashed to and which replica serves an outbound
	// connect. The zero value is the paper's RSS hash indirection.
	Steering SteeringConfig
	// Guard configures the per-replica resource guards against hostile
	// peers (SYN-backlog shedding, SYN cookies, slowloris header/idle
	// deadlines). The zero value disables every guard, preserving the
	// paper's behaviour exactly; see GuardConfig.
	Guard GuardConfig
	// IPC tunes the modeled shared-memory message rings of every channel
	// the system creates (replica↔replica, replica↔application, SYSCALL
	// server). The zero value keeps the calibrated per-message doorbell
	// behaviour; see IPCConfig.
	IPC IPCConfig
}

// IPCConfig tunes the bounded SPSC message rings of §3.2's user-space
// channels: CoalesceWakes. The zero value is the paper's calibrated
// behaviour. Declared in internal/ipc beside the ring.
type IPCConfig = ipc.Tuning

// GuardConfig bounds the resources one remote peer can pin inside a
// replica: SYN-backlog shedding, SYN cookies, slowloris header/idle
// deadlines. Guards are the containment half
// of the adversarial-workload plane: partitioning already limits an
// attack's blast radius to the replicas its flows hash to, and the guards
// keep even those replicas serving. Each field is independent and disabled
// at zero. Activity is counted in System.Metrics() as stack.syn_shed,
// stack.syn_cookies_sent and stack.slowloris_reaped.
// Declared in internal/tcpeng beside the engine that enforces it.
type GuardConfig = tcpeng.GuardConfig

// SteeringConfig selects and tunes a flow placement policy.
type SteeringConfig struct {
	// Policy names the placement policy:
	//
	//   - "" or "hash": the paper's RSS indirection-table modulo hash
	//     (default). Scale events remap roughly half of the unpinned
	//     flow space.
	//   - "ring": consistent-hash ring with 64 virtual nodes per replica;
	//     adding or removing one replica out of N remaps only O(1/N) of
	//     the unpinned flows.
	//   - "least-loaded" (aliases "leastloaded", "p2c"):
	//     power-of-two-choices over live per-replica connection counts;
	//     skew-resistant under elephant-flow workloads.
	//
	// Established connections are never remapped by any policy: their
	// flow-director filters pin them to the owning replica (§3.4).
	//
	// A retiring replica drains lazily under every policy: it serves its
	// existing connections until the last one closes (§3.4).
	Policy string
}

// compile is the one translation of the user-facing steering knobs (a
// policy name) to the placement plane's config, range checks included. The
// message starts at the field name; callers prefix the config path.
func (c SteeringConfig) compile() (steer.Config, error) {
	policy, err := steer.ParsePolicy(c.Policy)
	if err != nil {
		return steer.Config{}, fmt.Errorf("Policy %q: %v; want \"\", \"hash\", \"ring\" or \"least-loaded\"", c.Policy, err)
	}
	return steer.Config{Policy: policy}, nil
}

// firstReplicaCore is where a system's replicas start: core 0 hosts the NIC
// driver and core 1 the SYSCALL server.
const firstReplicaCore = 2

// compileSystem is the only translation of a SystemConfig into the
// testbed's NEaTConfig, and reports the first configuration error with
// enough context to fix it. Whether the layout fits the machine is the
// testbed's check. The tracer SystemConfig.Observe asks for is the
// builder's to attach.
func compileSystem(cfg SystemConfig) (testbed.NEaTConfig, error) {
	if cfg.Replicas < 0 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: SystemConfig.Replicas is %d; want 0 (default 2) or a positive count", cfg.Replicas)
	}
	if cfg.Replicas > 8 {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: SystemConfig.Replicas is %d, but the testbed NICs expose 8 RX/TX queue pairs; use at most 8 replicas", cfg.Replicas)
	}
	if cfg.Kind != stack.Single && cfg.Kind != stack.Multi {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: SystemConfig.Kind is %d; want neat.SingleComponent or neat.MultiComponent", cfg.Kind)
	}
	steering, err := cfg.Steering.compile()
	if err != nil {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: SystemConfig.Steering.%v", err)
	}
	if err := cfg.Guard.Validate(); err != nil {
		return testbed.NEaTConfig{}, fmt.Errorf("neat: SystemConfig.Guard.%v", err)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	slots := testbed.SingleSlots(firstReplicaCore, cfg.Replicas)
	if cfg.Kind == stack.Multi {
		slots = testbed.MultiSlots(firstReplicaCore, cfg.Replicas)
	}
	tcp := tcpeng.DefaultConfig()
	tcp.TSO = cfg.TSO
	tcp.Guard = cfg.Guard
	return testbed.NEaTConfig{
		Kind:     cfg.Kind,
		TCP:      tcp,
		Slots:    slots,
		Syscall:  testbed.ThreadLoc{Core: 1},
		Watchdog: cfg.Watchdog,
		Steering: steering,
		IPC:      cfg.IPC,
	}, nil
}
