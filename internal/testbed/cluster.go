package testbed

// Cluster assembly: the multi-machine generalization of the two-host
// testbed. A cluster is a star topology — one store-and-forward switch,
// one access link per machine — carrying N client machines and a set of
// server *farms*: groups of independent NEaT machines behind a shared
// virtual IP, steered by an L4 service on the switch. The paper's
// partitioning argument applied one level up: replicas partition flows
// within a machine, farms partition flows across machines, and the same
// steer.Placer policies drive both layers.
//
// Tenancy: every farm and client belongs to a tenant. A tenant's clients
// only resolve (static ARP) the VIPs of that tenant's farms, and each farm
// has its own placer and backend set, so tenants share the physical
// switch and links but have fully disjoint steering domains and replica
// sets — the NetKernel-style multi-tenant arrangement.
//
// Failure plane: each farm machine runs its NEaT watchdog; the farm
// controller (a control-plane loop on the root simulator) watches every
// member watchdog's ProbesSent counter for progress. A machine whose
// watchdog stops probing — hung kernel, pulled cable, KillMachine — is
// declared dead, its switch backend goes Down, and new flows re-place
// onto the surviving members. In PDES runs the controller executes at
// barriers with every domain quiescent, so cross-machine reads and state
// flips stay deterministic.

import (
	"fmt"

	"neat/internal/core"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/trace"
	"neat/internal/wire"
)

// FarmSpec describes one server farm: Members identical NEaT machines
// behind one VIP.
type FarmSpec struct {
	// Name labels the farm (required, unique).
	Name string
	// Tenant is the owning tenant ("" = the default tenant).
	Tenant string
	// Members is the machine count (≥ 1). The farm's virtual IP is
	// 10.0.0.(100+farmIndex).
	Members int
	// Host shapes each member machine (zero: the AMD model with 8 NIC
	// queues). Name/IP/MAC are assigned by the builder (members share the
	// VIP — direct-server-return).
	Host HostConfig
	// NEaT configures each member's system. Nil Slots means two
	// single-component replicas on cores 2-3. The watchdog is forced on:
	// its heartbeat counters are the cross-machine liveness signal.
	NEaT NEaTConfig
	// Trace, when non-nil, is the cluster's one tracer: NewCluster
	// attaches it to the simulator and hands it to every member system.
	Trace *trace.Tracer
}

// ClientSpec describes one load-generator machine.
type ClientSpec struct {
	// Tenant selects which farms this client can reach ("" = default).
	Tenant string
	// Stacks is the client replica count (default 1). Keep 1 when
	// sequential↔PDES byte-identity matters: a single stack makes the
	// connect-side placer draw-free.
	Stacks int
}

// ClusterSpec is a resolved cluster topology: one switch ("tor", 1 µs
// store-and-forward) and one 10 Gb/s, 1 µs access link per machine.
type ClusterSpec struct {
	Farms   []FarmSpec
	Clients []ClientSpec
}

// FarmMember is one running server machine of a farm.
type FarmMember struct {
	Host    *Host
	Sys     *core.System
	Port    int // switch port index
	Backend int // service backend index

	// controller state
	alive      bool
	lastProbes uint64
	sampled    bool
}

// Alive reports whether the farm controller still considers the member
// live.
func (m *FarmMember) Alive() bool { return m.alive }

// Farm is one running server farm.
type Farm struct {
	Name    string
	Tenant  string
	VIP     proto.Addr
	VMAC    proto.MAC
	Service *wire.L4Service
	Members []*FarmMember

	cluster *Cluster
}

// FarmEventKind enumerates farm-controller lifecycle events.
type FarmEventKind int

// Farm controller events.
const (
	// FarmMemberDead: a member's watchdog stopped making progress and the
	// backend was taken Down.
	FarmMemberDead FarmEventKind = iota
)

// String names the event kind.
func (k FarmEventKind) String() string {
	if k == FarmMemberDead {
		return "member-dead"
	}
	return fmt.Sprintf("FarmEventKind(%d)", int(k))
}

// FarmEvent is one farm-controller decision.
type FarmEvent struct {
	At     sim.Time
	Farm   string
	Kind   FarmEventKind
	Member int
}

// ClusterClient is one running load-generator machine.
type ClusterClient struct {
	Host   *Host
	Sys    *core.System
	Tenant string
	Port   int
}

// Cluster is a running cluster topology.
type Cluster struct {
	Sim     *sim.Simulator
	Switch  *wire.Switch
	Farms   []*Farm
	Clients []*ClusterClient

	events []FarmEvent
}

// Events returns the farm-controller lifecycle log in decision order.
func (c *Cluster) Events() []FarmEvent { return c.events }

// tenantFarms returns the farms of one tenant, in spec order.
func (c *Cluster) tenantFarms(tenant string) []*Farm {
	var out []*Farm
	for _, f := range c.Farms {
		if f.Tenant == tenant {
			out = append(out, f)
		}
	}
	return out
}

// validate reports the first error in the spec, with enough context to
// fix it.
func (spec ClusterSpec) validate() error {
	if len(spec.Farms) == 0 {
		return fmt.Errorf("testbed: cluster needs at least one farm")
	}
	if len(spec.Farms) > 64 {
		return fmt.Errorf("testbed: %d farms exceed the VIP block 10.0.0.100-163 (max 64)", len(spec.Farms))
	}
	if len(spec.Clients) == 0 {
		return fmt.Errorf("testbed: cluster needs at least one client machine")
	}
	if len(spec.Clients) > 54 {
		return fmt.Errorf("testbed: %d clients exceed the address block 10.0.0.200-253 (max 54)", len(spec.Clients))
	}
	names := make(map[string]bool, len(spec.Farms))
	tenants := make(map[string]bool)
	for i, f := range spec.Farms {
		if f.Name == "" {
			return fmt.Errorf("testbed: farm %d has no name", i)
		}
		if names[f.Name] {
			return fmt.Errorf("testbed: duplicate farm name %q", f.Name)
		}
		names[f.Name] = true
		tenants[f.Tenant] = true
		if f.Members < 1 {
			return fmt.Errorf("testbed: farm %q has %d members; want at least 1", f.Name, f.Members)
		}
		if f.Members > 250 {
			return fmt.Errorf("testbed: farm %q has %d members; the MAC plan allows 250", f.Name, f.Members)
		}
	}
	for i, cl := range spec.Clients {
		if cl.Stacks < 0 {
			return fmt.Errorf("testbed: client %d has %d stacks; want 0 (default 1) or more", i, cl.Stacks)
		}
		if !tenants[cl.Tenant] {
			return fmt.Errorf("testbed: client %d belongs to tenant %q, which owns no farm", i, cl.Tenant)
		}
	}
	return nil
}

// farmVIP and the MAC plan give every cluster element a deterministic
// address: farm f's VIP is 10.0.0.(100+f) with VMAC 02:FE::(f+1), its
// member m has MAC 02:AD::(f+1):(m+1) (and the VIP as its IP —
// direct-server-return), client k is 10.0.0.(200+k) / 02:C1::(k+1).
func farmVIP(f int) proto.Addr { return proto.IPv4(10, 0, 0, byte(100+f)) }

func farmVMAC(f int) proto.MAC { return proto.MAC{0x02, 0xFE, 0, 0, 0, byte(f + 1)} }

func memberMAC(f, m int) proto.MAC { return proto.MAC{0x02, 0xAD, 0, 0, byte(f + 1), byte(m + 1)} }

func clientIP(k int) proto.Addr { return proto.IPv4(10, 0, 0, byte(200+k)) }

func clientMAC(k int) proto.MAC { return proto.MAC{0x02, 0xC1, 0, 0, 0, byte(k + 1)} }

// NewCluster builds and boots the cluster described by spec on simulator
// s. In PDES mode (experiments.NewClusterBed's benchmark probe) every
// machine — the switch included — runs in its own scheduling domain. Machine creation order is
// fixed (switch, then farms in order, then clients), so domain RNG
// seeding and addressing are reproducible run-to-run. A farm's tracer is
// attached to s before the first machine exists.
func NewCluster(s *sim.Simulator, spec ClusterSpec) (*Cluster, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	for _, fs := range spec.Farms {
		if fs.Trace != nil {
			fs.Trace.Attach(s)
		}
	}
	// The "forwarding ASIC": a one-core machine minted only for its
	// scheduling domain. The switch model costs no cycles on it.
	swm := sim.NewMachine(s, "tor", 1, 1, 1_000_000_000)
	sw := wire.NewSwitch(swm.Sim(), "tor")
	c := &Cluster{Sim: s, Switch: sw}

	// Client addressing first: farm members need the client ARP entries
	// of their tenant before their stacks boot.
	clientARP := make(map[string]map[proto.Addr]proto.MAC)
	for k, cl := range spec.Clients {
		if clientARP[cl.Tenant] == nil {
			clientARP[cl.Tenant] = make(map[proto.Addr]proto.MAC)
		}
		clientARP[cl.Tenant][clientIP(k)] = clientMAC(k)
	}

	for fi := range spec.Farms {
		fs := &spec.Farms[fi]
		vip := farmVIP(fi)
		vmac := farmVMAC(fi)
		svc, err := sw.AddService(wire.L4ServiceConfig{
			Name: fs.Name,
			VIP:  vip,
			VMAC: vmac,
		})
		if err != nil {
			return nil, err
		}
		farm := &Farm{
			Name: fs.Name, Tenant: fs.Tenant, VIP: vip, VMAC: vmac,
			Service: svc, cluster: c,
		}
		for mi := 0; mi < fs.Members; mi++ {
			hcfg := fs.Host
			if hcfg == (HostConfig{}) {
				hcfg = AMD.Host(8)
			}
			hcfg.Name = fmt.Sprintf("%s-m%d", fs.Name, mi)
			hcfg.IP = vip // DSR: every member answers from the VIP
			hcfg.MAC = memberMAC(fi, mi)
			n := newNet(s)
			h := n.addHost(0, hcfg)
			ncfg := fs.NEaT
			if ncfg.Slots == nil {
				ncfg.Slots = SingleSlots(2, 2)
				ncfg.Syscall = ThreadLoc{Core: 1}
			}
			// The member watchdog is the cross-machine liveness signal:
			// the farm controller reads its probe counter for progress.
			ncfg.Watchdog = true
			sys, err := h.boot(clientARP[fs.Tenant], ncfg, fs.Trace)
			if err != nil {
				return nil, fmt.Errorf("testbed: farm %q member %d: %w", fs.Name, mi, err)
			}
			port := sw.AddPort(hcfg.Name, n.Link.End(1), hcfg.MAC)
			backend := svc.AddBackend(port, hcfg.MAC, wire.BackendActive)
			farm.Members = append(farm.Members, &FarmMember{
				Host: h, Sys: sys, Port: port, Backend: backend, alive: true,
			})
		}
		c.Farms = append(c.Farms, farm)
	}

	for k := range spec.Clients {
		cs := &spec.Clients[k]
		stacks := cs.Stacks
		if stacks == 0 {
			stacks = 1
		}
		hcfg := clientHost(stacks)
		hcfg.Name = fmt.Sprintf("client%d", k)
		hcfg.IP = clientIP(k)
		hcfg.MAC = clientMAC(k)
		n := newNet(s)
		h := n.addHost(0, hcfg)
		// A tenant's client resolves exactly its tenant's VIPs: the ARP
		// table is the tenant boundary.
		arp := make(map[proto.Addr]proto.MAC)
		for _, f := range c.tenantFarms(cs.Tenant) {
			arp[f.VIP] = f.VMAC
		}
		sys, err := h.boot(arp, clientSystem(stacks), nil)
		if err != nil {
			return nil, fmt.Errorf("testbed: client %d: %w", k, err)
		}
		port := sw.AddPort(hcfg.Name, n.Link.End(1), hcfg.MAC)
		c.Clients = append(c.Clients, &ClusterClient{
			Host: h, Sys: sys, Tenant: cs.Tenant, Port: port,
		})
	}

	// Start the farm controllers: control-plane loops on the root
	// simulator, which PDES executes at barriers with all domains
	// quiescent. The first tick is offset from the member watchdogs'
	// probe instants (multiples of their 100 µs interval) so counter
	// sampling never ties with a probe event.
	for _, f := range c.Farms {
		farm := f
		var tick func()
		tick = func() {
			farm.controlTick()
			s.After(farmControlInterval, tick)
		}
		s.At(s.Now()+farmControlInterval+17*sim.Microsecond, tick)
	}
	return c, nil
}

// farmControlInterval is the farm controller's health-check period.
const farmControlInterval = 250 * sim.Microsecond

// controlTick is one farm-controller evaluation of member health.
func (f *Farm) controlTick() {
	now := f.cluster.Sim.Now()

	// Health: a live member's watchdog sends probes every round; a
	// counter that stopped moving means the machine is gone (hung kernel,
	// dead cable, KillMachine). Backend goes Down — pinned flows to it
	// are lost (their state died with the machine), new flows re-place
	// onto the survivors.
	for i, m := range f.Members {
		if !m.alive {
			continue
		}
		probes := m.Sys.Watchdog().Stats().ProbesSent
		if m.sampled && probes == m.lastProbes {
			m.alive = false
			f.Service.SetBackendState(m.Backend, wire.BackendDown)
			f.cluster.events = append(f.cluster.events, FarmEvent{
				At: now, Farm: f.Name, Kind: FarmMemberDead, Member: i,
			})
			continue
		}
		m.lastProbes = probes
		m.sampled = true
	}
}

// KillMachine fails farm member (farm, member) completely: every process
// on the machine livelocks (accepting deliveries, processing nothing —
// invisible to the in-machine crash oracle, exactly a hung kernel) and
// the machine's switch port goes down. Detection is the farm
// controller's job. Call from a control-plane event (root-simulator
// At/After) so PDES runs it at a barrier.
func (c *Cluster) KillMachine(farm, member int) {
	f := c.Farms[farm]
	m := f.Members[member]
	mach := m.Host.Machine
	for ci := 0; ci < mach.NumCores(); ci++ {
		core := mach.Core(ci)
		for ti := 0; ti < core.NumThreads(); ti++ {
			for _, p := range mach.Thread(ci, ti).Procs() {
				if !p.Dead() {
					p.Hang()
				}
			}
		}
	}
	c.Switch.SetPortUp(m.Port, false)
}
