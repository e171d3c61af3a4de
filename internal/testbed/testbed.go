// Package testbed assembles complete simulated testbeds: machines, NICs,
// drivers, links, NEaT systems and client stacks. It reproduces the
// paper's physical setup (§6) — two machines connected by a 10GbE DAC
// cable, alternating roles between system under test and load generator —
// and is shared by the integration tests, the examples and the experiment
// harness.
package testbed

import (
	"fmt"

	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/tcpeng"
	"neat/internal/wire"
)

// Netmask used throughout the testbed (one /24).
var Netmask = proto.IPv4(255, 255, 255, 0)

// Net is a two-endpoint network: one simulator, one 10G link.
type Net struct {
	Sim  *sim.Simulator
	Link *wire.Link
}

// New creates a network with a 10 Gb/s, 1 µs DAC-like link.
func New(seed int64) *Net {
	return NewOn(sim.New(seed))
}

// NewOn creates a network on an existing simulator. Farm topologies (many
// host pairs in one simulation, e.g. the PDES scaling benches) call this
// once per link, sharing the simulator across all of them.
func NewOn(s *sim.Simulator) *Net {
	return &Net{Sim: s, Link: wire.NewLink(s)}
}

// LinkSpec overrides the shape of a link: the one declaration every layer
// that lets a caller reshape links carries (experiment beds, ClusterSpec,
// the neat facade). Zero fields keep wire.NewLink's defaults — the
// 10 Gb/s, 1 µs DAC of the paper's testbed.
type LinkSpec struct {
	// BitsPerSec is the line rate (default 10 Gb/s).
	BitsPerSec int64
	// PropDelay is the propagation delay (default 1 µs).
	PropDelay sim.Time
}

// Validate reports a negative rate or delay.
func (ls LinkSpec) Validate() error {
	if ls.BitsPerSec < 0 || ls.PropDelay < 0 {
		return fmt.Errorf("link shape is %+v; rate and propagation delay must be 0 (defaults) or positive", ls)
	}
	return nil
}

// Shape applies the overrides to a freshly built link.
func (ls LinkSpec) Shape(l *wire.Link) {
	if ls.BitsPerSec > 0 {
		l.BitsPerSec = ls.BitsPerSec
	}
	if ls.PropDelay > 0 {
		l.PropDelay = ls.PropDelay
	}
}

// ThreadLoc addresses one hardware thread of a machine.
type ThreadLoc struct {
	Core   int
	Thread int
}

// HostConfig describes one machine and its NIC.
type HostConfig struct {
	Name           string
	Side           int // link endpoint (0 or 1)
	Cores          int
	ThreadsPerCore int
	FreqHz         int64
	Queues         int // NIC RX/TX queue pairs
	IP             proto.Addr
	MAC            proto.MAC
	Driver         ThreadLoc // where the NIC driver runs
}

// Host is a machine with its NIC and driver.
type Host struct {
	Net     *Net
	Machine *sim.Machine
	NIC     *nicdev.NIC
	Driver  *nicdev.Driver
	IP      proto.Addr
	MAC     proto.MAC
}

// AddHost creates a machine attached to the link.
func (n *Net) AddHost(cfg HostConfig) *Host {
	if cfg.ThreadsPerCore == 0 {
		cfg.ThreadsPerCore = 1
	}
	if cfg.FreqHz == 0 {
		cfg.FreqHz = 1_900_000_000
	}
	if cfg.Queues == 0 {
		cfg.Queues = 1
	}
	m := sim.NewMachine(n.Sim, cfg.Name, cfg.Cores, cfg.ThreadsPerCore, cfg.FreqHz)
	nic := nicdev.NewNIC(n.Sim, cfg.Name+".nic", cfg.MAC, n.Link, cfg.Side, cfg.Queues)
	drv := nicdev.NewDriver(m.Thread(cfg.Driver.Core, cfg.Driver.Thread),
		cfg.Name+".nicdrv", nic, nicdev.DefaultDriverCosts())
	return &Host{Net: n, Machine: m, NIC: nic, Driver: drv, IP: cfg.IP, MAC: cfg.MAC}
}

// Thread resolves a thread location on the host.
func (h *Host) Thread(loc ThreadLoc) *sim.HWThread {
	return h.Machine.Thread(loc.Core, loc.Thread)
}

// StackConfig returns the replica template for this host, with static ARP
// towards the peer host.
func (h *Host) StackConfig(kind stack.Kind, tcp tcpeng.Config, peer *Host) stack.Config {
	return h.stackConfigARP(kind, tcp, map[proto.Addr]proto.MAC{peer.IP: peer.MAC})
}

// stackConfigARP returns the replica template for this host with an
// arbitrary static ARP table — the multi-peer form cluster topologies
// need, where a farm machine answers many clients and a client resolves
// many service VIPs.
func (h *Host) stackConfigARP(kind stack.Kind, tcp tcpeng.Config, arp map[proto.Addr]proto.MAC) stack.Config {
	return stack.Config{
		Kind: kind,
		IP: ipeng.Config{
			Addr: h.IP, Mask: Netmask, MAC: h.MAC,
			StaticARP: arp,
		},
		TCP:   tcp,
		Costs: stack.DefaultCosts(),
		IPC:   ipc.DefaultCosts(),
	}
}

// NEaTConfig places a NEaT system on a host.
type NEaTConfig struct {
	Kind stack.Kind
	TCP  tcpeng.Config
	// Slots lists the hardware threads of each replica slot (1 thread for
	// single-component, 2 for multi-component replicas).
	Slots [][]ThreadLoc
	// Syscall places the SYSCALL server.
	Syscall ThreadLoc
	// InitialReplicas (default: all slots).
	InitialReplicas int
	// DisableFlowFilters switches to pure-RSS steering (ablation).
	DisableFlowFilters bool
	// UseNICFlowTracking enables the §4 hardware tracking extension
	// (usually combined with DisableFlowFilters).
	UseNICFlowTracking bool
	// RecoveryDelay overrides the default 500 µs.
	RecoveryDelay sim.Time
	// CheckpointInterval enables stateful TCP recovery (0 = stateless).
	CheckpointInterval sim.Time
	// Watchdog enables heartbeat-based failure detection with the
	// escalation ladder (default: the paper's instantaneous crash oracle).
	Watchdog bool
	// Steering configures the flow placement plane (zero value: the
	// legacy RSS hash policy, no drain deadline).
	Steering steer.Config
	// Stack optionally overrides the full replica template (built from
	// StackConfig when nil).
	Stack *stack.Config
	// IPC tunes the modeled message rings of the system's channels. When
	// set it replaces the ring tuning of whichever template is used (Stack
	// or the default); the zero value keeps the template's — by default the
	// calibrated per-message doorbell behaviour.
	IPC ipc.Tuning
	// Observe attaches the observability layer (lifecycle events; combine
	// with trace.Tracer.Attach on the simulator for message tracing).
	Observe core.ObserveConfig
}

// BuildNEaT boots a NEaT system on host h talking to peer.
func (h *Host) BuildNEaT(peer *Host, cfg NEaTConfig) (*core.System, error) {
	return h.BuildNEaTARP(map[proto.Addr]proto.MAC{peer.IP: peer.MAC}, cfg)
}

// BuildNEaTARP boots a NEaT system on host h with an arbitrary static ARP
// table (the cluster form: one server machine answering many clients).
func (h *Host) BuildNEaTARP(arp map[proto.Addr]proto.MAC, cfg NEaTConfig) (*core.System, error) {
	scfg := h.stackConfigARP(cfg.Kind, cfg.TCP, arp)
	if cfg.Stack != nil {
		scfg = *cfg.Stack
	}
	if cfg.IPC != (ipc.Tuning{}) {
		scfg.IPC.Tuning = cfg.IPC
	}
	threads := make([][]*sim.HWThread, len(cfg.Slots))
	for i, slot := range cfg.Slots {
		for _, loc := range slot {
			threads[i] = append(threads[i], h.Thread(loc))
		}
	}
	return core.New(h.Net.Sim, core.Config{
		Stack:              scfg,
		Threads:            threads,
		InitialReplicas:    cfg.InitialReplicas,
		NIC:                h.NIC,
		Driver:             h.Driver,
		SyscallThread:      h.Thread(cfg.Syscall),
		RecoveryDelay:      cfg.RecoveryDelay,
		CheckpointInterval: cfg.CheckpointInterval,
		UseFlowFilters:     !cfg.DisableFlowFilters,
		UseNICFlowTracking: cfg.UseNICFlowTracking,
		Watchdog:           cfg.Watchdog,
		Observe:            cfg.Observe,
		Steering:           cfg.Steering,
	})
}

// SingleSlots builds n single-thread slots on consecutive cores starting
// at core first (thread 0).
func SingleSlots(first, n int) [][]ThreadLoc {
	out := make([][]ThreadLoc, n)
	for i := range out {
		out[i] = []ThreadLoc{{Core: first + i}}
	}
	return out
}

// MultiSlots builds n two-thread slots on consecutive core pairs starting
// at core first: slot i = cores (first+2i, first+2i+1).
func MultiSlots(first, n int) [][]ThreadLoc {
	out := make([][]ThreadLoc, n)
	for i := range out {
		out[i] = []ThreadLoc{{Core: first + 2*i}, {Core: first + 2*i + 1}}
	}
	return out
}

// Core counts of the two system-under-test machines of §6. Layout checks
// above this package (does a replica placement fit the machine?) read
// them instead of restating the numbers.
const (
	AMDCores  = 12
	XeonCores = 8
)

// DefaultAMDHost returns the 12-core AMD Opteron 6168 system-under-test
// host of §6 (1.9 GHz, no hyperthreading).
func DefaultAMDHost(n *Net, side int, queues int) *Host {
	return n.AddHost(HostConfig{
		Name: "amd", Side: side, Cores: AMDCores, ThreadsPerCore: 1,
		FreqHz: 1_900_000_000, Queues: queues,
		IP:  proto.IPv4(10, 0, 0, 1),
		MAC: proto.MAC{0x02, 0xAD, 0, 0, 0, 0x01},
		// Core 0 hosts the NIC driver (the paper dedicates one core to it).
		Driver: ThreadLoc{Core: 0},
	})
}

// DefaultXeonHost returns the dual-socket quad-core Xeon E5520 host of §6
// (8 cores, 2 hardware threads per core, 2.26 GHz).
func DefaultXeonHost(n *Net, side int, queues int, driver ThreadLoc) *Host {
	return n.AddHost(HostConfig{
		Name: "xeon", Side: side, Cores: XeonCores, ThreadsPerCore: 2,
		FreqHz: 2_260_000_000, Queues: queues,
		IP:     proto.IPv4(10, 0, 0, 1),
		MAC:    proto.MAC{0x02, 0x8E, 0, 0, 0, 0x01},
		Driver: driver,
	})
}

// DefaultClientHost returns a deliberately oversized load-generator
// machine (it must never be the bottleneck; the paper uses the second
// testbed machine with 12 httperf instances).
func DefaultClientHost(n *Net, side int, stacks int) *Host {
	cores := 2 + 2*stacks + 14 // driver + syscall + stacks + apps
	return n.AddHost(HostConfig{
		Name: "client", Side: side, Cores: cores, ThreadsPerCore: 1,
		FreqHz: 3_000_000_000, Queues: stacks,
		IP:     proto.IPv4(10, 0, 0, 2),
		MAC:    proto.MAC{0x02, 0xC1, 0, 0, 0, 0x02},
		Driver: ThreadLoc{Core: 0},
	})
}

// BuildClientSystem boots a NEaT system on the (oversized) client host
// with `stacks` single-component replicas: one per load-generator process.
// Client stacks are given a large cycle discount — the load generator must
// saturate the server, not itself (the paper's client machine runs 12
// httperf processes that together generate >300 krps).
func (h *Host) BuildClientSystem(peer *Host, stacks int, tcp tcpeng.Config) (*core.System, error) {
	return h.BuildClientSystemARP(map[proto.Addr]proto.MAC{peer.IP: peer.MAC}, stacks, tcp)
}

// BuildClientSystemARP is BuildClientSystem with an arbitrary static ARP
// table (the cluster form: one load generator resolving many service VIPs).
func (h *Host) BuildClientSystemARP(arp map[proto.Addr]proto.MAC, stacks int, tcp tcpeng.Config) (*core.System, error) {
	scfg := h.stackConfigARP(stack.Single, tcp, arp)
	// Generous client: stack operations cost a tenth of the server's.
	scfg.Costs = cheapCosts()
	cfg := NEaTConfig{Kind: stack.Single, TCP: tcp,
		Slots:   SingleSlots(2, stacks),
		Syscall: ThreadLoc{Core: 1},
		Stack:   &scfg,
	}
	return h.BuildNEaTARP(arp, cfg)
}

// cheapCosts returns stack costs scaled down for the load generator.
func cheapCosts() stack.Costs {
	c := stack.DefaultCosts()
	c.FilterCheck /= 10
	c.IPIn /= 10
	c.IPOut /= 10
	c.TCPSegIn /= 10
	c.TCPSegOut /= 10
	c.TCPConnSetup /= 10
	c.UDPIn /= 10
	c.UDPOut /= 10
	c.SockOp /= 10
	c.SockEvent /= 10
	c.TimerOp /= 10
	return c
}

// AppThread returns thread (core, 0) with a helpful panic when the host is
// too small (misconfigured experiment).
func (h *Host) AppThread(coreIdx int) *sim.HWThread {
	if coreIdx >= h.Machine.NumCores() {
		panic(fmt.Sprintf("testbed: host %s has %d cores, wanted core %d",
			h.Machine.Name, h.Machine.NumCores(), coreIdx))
	}
	return h.Machine.Thread(coreIdx, 0)
}

// BuildBaseline boots a monolithic Linux-model stack on host h: one kernel
// context per entry of kernelLocs, applications to be colocated by the
// caller on the same threads. The zero costs selects baseline.DefaultCosts.
func (h *Host) BuildBaseline(peer *Host, tuning baseline.Tuning, tcp tcpeng.Config, costs baseline.Costs, kernelLocs []ThreadLoc) (*baseline.System, error) {
	threads := make([]*sim.HWThread, len(kernelLocs))
	for i, loc := range kernelLocs {
		threads[i] = h.Thread(loc)
	}
	scfg := h.StackConfig(stack.Single, tcp, peer)
	return baseline.New(baseline.Config{
		KernelThreads: threads,
		NIC:           h.NIC,
		IP:            scfg.IP,
		TCP:           tcp,
		Tuning:        tuning,
		Costs:         costs,
		IPC:           scfg.IPC,
	})
}
