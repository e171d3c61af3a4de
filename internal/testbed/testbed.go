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
	"neat/internal/trace"
	"neat/internal/wire"
)

// Net is a two-endpoint network: one simulator, one 10G link.
type Net struct {
	Sim  *sim.Simulator
	Link *wire.Link
}

// newNet adds a 10 Gb/s, 1 µs DAC-like link to simulator s. Farm
// topologies (many host pairs in one simulation) call it once per link,
// sharing the simulator across all of them.
func newNet(s *sim.Simulator) *Net {
	return &Net{Sim: s, Link: wire.NewLink(s)}
}

// ThreadLoc is core.ThreadLoc under the name benchmark/web.go uses.
type ThreadLoc = core.ThreadLoc

// HostConfig describes one machine and its NIC.
type HostConfig struct {
	Name           string
	Cores          int
	threadsPerCore int
	freqHz         int64
	queues         int // NIC RX/TX queue pairs
	IP             proto.Addr
	MAC            proto.MAC
	Driver         core.ThreadLoc // where the NIC driver runs
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

// addHost creates a machine attached to endpoint side (0 or 1) of the link.
func (n *Net) addHost(side int, cfg HostConfig) *Host {
	m := sim.NewMachine(n.Sim, cfg.Name, cfg.Cores, cfg.threadsPerCore, cfg.freqHz)
	nic := nicdev.NewNIC(n.Sim, cfg.Name+".nic", cfg.MAC, n.Link, side, cfg.queues)
	drv := nicdev.NewDriver(m.Thread(cfg.Driver.Core, cfg.Driver.Thread),
		cfg.Name+".nicdrv", nic, nicdev.DefaultDriverCosts())
	return &Host{Net: n, Machine: m, NIC: nic, Driver: drv, IP: cfg.IP, MAC: cfg.MAC}
}

// Thread resolves a thread location on the host.
func (h *Host) Thread(loc core.ThreadLoc) *sim.HWThread {
	return h.Machine.Thread(loc.Core, loc.Thread)
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

// ipConfig is the host's IP configuration — one /24 throughout the
// testbed — with a static ARP table.
func (h *Host) ipConfig(arp map[proto.Addr]proto.MAC) ipeng.Config {
	return ipeng.Config{Addr: h.IP, Mask: proto.IPv4(255, 255, 255, 0), MAC: h.MAC, StaticARP: arp}
}

// MachineModel selects one of the two system-under-test machines of §6.
type MachineModel int

// The two testbed machines.
const (
	// AMD is the 12-core AMD Opteron 6168 at 1.9 GHz, no hyperthreading.
	AMD MachineModel = iota
	// Xeon is the dual-socket quad-core Xeon E5520 at 2.26 GHz with
	// 2-way SMT.
	Xeon
)

// Host returns the model's machine with queues NIC queue pairs, addressed
// as the server of the two-machine bed. Core 0 hosts the NIC driver (the
// paper dedicates one core to it).
func (m MachineModel) Host(queues int) HostConfig {
	if m == Xeon {
		return HostConfig{Name: "xeon", Cores: 8, threadsPerCore: 2,
			freqHz: 2_260_000_000, queues: queues,
			IP: proto.IPv4(10, 0, 0, 1), MAC: proto.MAC{0x02, 0x8E, 0, 0, 0, 0x01}}
	}
	return HostConfig{Name: "amd", Cores: 12, threadsPerCore: 1,
		freqHz: 1_900_000_000, queues: queues,
		IP: proto.IPv4(10, 0, 0, 1), MAC: proto.MAC{0x02, 0xAD, 0, 0, 0, 0x01}}
}

// clientHost is the deliberately oversized load-generator machine for
// `stacks` client replicas (it must never be the bottleneck; the paper
// uses the second testbed machine with 12 httperf instances).
func clientHost(stacks int) HostConfig {
	return HostConfig{Name: "client",
		Cores:          2 + 2*stacks + 14, // driver + syscall + stacks + apps
		threadsPerCore: 1, freqHz: 3_000_000_000, queues: stacks,
		IP: proto.IPv4(10, 0, 0, 2), MAC: proto.MAC{0x02, 0xC1, 0, 0, 0, 0x02}}
}

// boot starts a NEaT system on host h with static ARP table arp: the one
// per-machine system builder behind two-machine servers and clients and
// every cluster member and client. tr, when non-nil, receives the system's
// lifecycle events.
func (h *Host) boot(arp map[proto.Addr]proto.MAC, cfg core.Config, tr *trace.Tracer) (*core.System, error) {
	return core.New(h.Machine, h.NIC, h.Driver, h.ipConfig(arp), tr, cfg)
}

// clientSystem is the load generator's NEaT system: `stacks`
// single-component replicas from core 2, one per load-generator process.
// Client stacks are given a large cycle discount — the load generator must
// saturate the server, not itself (the paper's client machine runs 12
// httperf processes that together generate >300 krps). Their engines run
// tcpeng.DefaultConfig().
func clientSystem(stacks int) core.Config {
	return core.Config{Kind: stack.Single,
		Slots:   SingleSlots(2, stacks),
		Syscall: core.ThreadLoc{Core: 1},
		Costs:   cheapCosts(),
	}
}

// cheapCosts returns stack costs scaled down for the load generator: stack
// operations cost a tenth of the server's.
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

// SingleSlots builds n single-thread slots on consecutive cores starting
// at core first (thread 0).
func SingleSlots(first, n int) [][]core.ThreadLoc {
	out := make([][]core.ThreadLoc, n)
	for i := range out {
		out[i] = []core.ThreadLoc{{Core: first + i}}
	}
	return out
}

// MultiSlots builds n two-thread slots on consecutive core pairs starting
// at core first: slot i = cores (first+2i, first+2i+1).
func MultiSlots(first, n int) [][]core.ThreadLoc {
	out := make([][]core.ThreadLoc, n)
	for i := range out {
		out[i] = []core.ThreadLoc{{Core: first + 2*i}, {Core: first + 2*i + 1}}
	}
	return out
}

// BedConfig describes one two-machine bed: the server machine and its
// system, and the load-generator machine.
type BedConfig struct {
	// Trace, when non-nil, is attached to the simulator before anything is
	// built and handed to the server's NEaT system.
	Trace *trace.Tracer
	// Server shapes the system-under-test machine (a MachineModel's Host,
	// or a custom shape).
	Server HostConfig
	// NEaT is the server's system. With LinuxCores > 0 the Linux baseline
	// boots instead, running NEaT.TCP under LinuxTuning with one kernel
	// context on each of cores 0..LinuxCores-1.
	NEaT        core.Config
	LinuxCores  int
	LinuxTuning baseline.Tuning
	// Tune, when non-nil, runs against the server's NEaT system before the
	// client side boots (scale adjustments, fault arming), so its events
	// land before the client stack's boot events.
	Tune func(*core.System) error
	// ClientStacks is the load generator's replica count (default 1); the
	// load-generator machine is sized for them (clientHost).
	ClientStacks int
}

// Bed is a booted two-machine testbed.
type Bed struct {
	Net    *Net
	Server *Host
	Client *Host
	NEaT   *core.System     // the server's NEaT system (nil over the baseline)
	Linux  *baseline.System // the server's baseline (nil over NEaT)
	CliSys *core.System
}

// NewBed boots the paper's two-machine testbed (§6) on simulator s, which
// may be shared with other beds (one link each): tracer, server machine,
// client machine, server system, Tune, client system — in that order, since
// process creation order fixes event sequence numbers.
func NewBed(s *sim.Simulator, cfg BedConfig) (*Bed, error) {
	if cfg.Trace != nil {
		cfg.Trace.Attach(s)
	}
	stacks := max(cfg.ClientStacks, 1)
	n := newNet(s)
	b := &Bed{Net: n, Server: n.addHost(0, cfg.Server), Client: n.addHost(1, clientHost(stacks))}
	arp := map[proto.Addr]proto.MAC{b.Client.IP: b.Client.MAC}
	var err error
	if cfg.LinuxCores > 0 {
		threads := make([]*sim.HWThread, cfg.LinuxCores)
		for i := range threads {
			threads[i] = b.Server.Machine.Thread(i, 0)
		}
		b.Linux, err = baseline.New(baseline.Config{
			KernelThreads: threads,
			NIC:           b.Server.NIC,
			IP:            b.Server.ipConfig(arp),
			TCP:           cfg.NEaT.TCP,
			Tuning:        cfg.LinuxTuning,
			IPC:           ipc.DefaultCosts(),
		})
	} else {
		b.NEaT, err = b.Server.boot(arp, cfg.NEaT, cfg.Trace)
		if err == nil && cfg.Tune != nil {
			err = cfg.Tune(b.NEaT)
		}
	}
	if err != nil {
		return nil, err
	}
	b.CliSys, err = b.Client.boot(map[proto.Addr]proto.MAC{b.Server.IP: b.Server.MAC},
		clientSystem(stacks), nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}
