package experiments

// ClusterScale: the datacenter campaign. One simulated cluster — a
// store-and-forward switch, N load-generator machines, M-member NEaT
// server farms behind L4 virtual services, two tenants — driven up a
// connection-count ladder. The paper's partitioning argument measured one
// level up: flows partition across machines the way they partition across
// replicas within a machine, and goodput should scale with active members
// the way Figure 9 scales with replicas.
//
// Determinism contract: a cluster run is a pure function of its seed, and
// the report prints only simulation-derived numbers — never wall-clock
// times. `make verify` pins the md5 of `neat-bench -only cluster -quick`. The
// workload is RNG-free on every behavior-relevant path: one stack per
// client machine (the connect-side placer has a single choice),
// deterministic farm steering (hash over the active set), no
// loss/duplication on any link, and fixed port plans.

import (
	"fmt"

	"neat/internal/app"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// ClusterBedConfig describes one cluster configuration plus its workload.
type ClusterBedConfig struct {
	Seed int64
	// PDESWorkers > 0 runs the bed under conservative parallel simulation
	// (sim.EnablePDES) with that many workers; 0 is the sequential event
	// loop. Its one non-test caller is the benchmark's traced cluster pass,
	// which re-runs under 1 and 2 workers and reports the speedup; the
	// field goes, with the PDES engine, once that probe is gone. Runs are
	// byte-identical across worker counts >= 1 but differ from the
	// sequential run: a wire delivery and a machine-local event due at the
	// same nanosecond are ordered by sequence number, which the sequential
	// engine stamps at transmit time and a PDES domain at the barrier flush.
	PDESWorkers int

	// Topology (defaults: 3 farms × 2 members × 2 replicas, 4 clients,
	// 2 tenants — the smallest shape exercising multi-farm steering,
	// multi-client load and tenant isolation).
	Farms             int
	MembersPerFarm    int
	ReplicasPerMember int
	Clients           int
	Tenants           int

	// Workload: each client machine runs one load generator per farm of
	// its tenant, targeting the farm VIP.
	ConnsPerGen int      // concurrent connections per generator (default 8)
	ReqPerConn  int      // requests per connection (default 50)
	FileSize    int      // response body bytes (default 64)
	Timeout     sim.Time // request timeout (default: the loadgen's own 2 s)

	// Observe attaches the message tracer (per-tier latency breakdowns).
	Observe bool

	// IPC tunes every member's modeled message rings (doorbell
	// coalescing). Zero value: calibrated per-message doorbells.
	IPC ipc.Tuning
}

func (cfg *ClusterBedConfig) fillDefaults() {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Farms == 0 {
		cfg.Farms = 3
	}
	if cfg.MembersPerFarm == 0 {
		cfg.MembersPerFarm = 2
	}
	if cfg.ReplicasPerMember == 0 {
		cfg.ReplicasPerMember = 2
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 2
	}
	if cfg.Tenants > cfg.Farms {
		cfg.Tenants = cfg.Farms
	}
	if cfg.Tenants > cfg.Clients {
		cfg.Tenants = cfg.Clients
	}
	if cfg.ConnsPerGen == 0 {
		cfg.ConnsPerGen = 8
	}
	if cfg.ReqPerConn == 0 {
		cfg.ReqPerConn = 50
	}
	if cfg.FileSize == 0 {
		cfg.FileSize = 64
	}
}

// tenantName labels tenant t ("tenant0", "tenant1", ...).
func tenantName(t int) string { return fmt.Sprintf("tenant%d", t) }

// clusterFarmPort is farm fi's service port (all members listen on it;
// clients dial VIP:port).
func clusterFarmPort(fi int) uint16 { return uint16(8000 + fi) }

// ClusterBed is an instantiated cluster ready to measure.
type ClusterBed struct {
	Cfg     ClusterBedConfig
	Sim     *sim.Simulator
	Cluster *testbed.Cluster
	// Webs[farm][member] is the member's web server.
	Webs [][]*app.HTTPD
	// Gens are all load generators, grouped client-major then farm-major
	// (GenFarm maps each to its target farm index).
	Gens    []*app.Loadgen
	GenFarm []int
	Trace   *trace.Tracer
}

// NewClusterBed builds and boots a cluster configuration.
func NewClusterBed(cfg ClusterBedConfig) (*ClusterBed, error) {
	cfg.fillDefaults()
	s := sim.New(cfg.Seed)
	if cfg.PDESWorkers > 0 {
		// Must precede machine creation: every machine built afterwards
		// (the switch included) gets its own event-queue domain.
		s.EnablePDES(cfg.PDESWorkers)
	}
	var tr *trace.Tracer
	if cfg.Observe {
		// One tracer for the whole cluster: NewCluster attaches it to the
		// simulator and hands it to every member system.
		tr = trace.New()
	}

	spec := testbed.ClusterSpec{}
	for fi := 0; fi < cfg.Farms; fi++ {
		// The member machine: the AMD model with 8 NIC queues, grown when
		// driver (core 0), SYSCALL (core 1), the replicas from core 2 and
		// the web server above them need more cores.
		host := testbed.AMD.Host(8)
		host.Cores = max(host.Cores, 2+cfg.ReplicasPerMember+1)
		spec.Farms = append(spec.Farms, testbed.FarmSpec{
			Name:    fmt.Sprintf("farm%d", fi),
			Tenant:  tenantName(fi % cfg.Tenants),
			Members: cfg.MembersPerFarm,
			Host:    host,
			NEaT: core.Config{
				Slots:   testbed.SingleSlots(2, cfg.ReplicasPerMember),
				Syscall: core.ThreadLoc{Core: 1},
				IPC:     cfg.IPC,
			},
			Trace: tr,
		})
	}
	for k := 0; k < cfg.Clients; k++ {
		spec.Clients = append(spec.Clients, testbed.ClientSpec{
			Tenant: tenantName(k % cfg.Tenants),
			Stacks: 1, // one stack per client machine: connect placement is draw-free
		})
	}
	cluster, err := testbed.NewCluster(s, spec)
	if err != nil {
		return nil, err
	}
	b := &ClusterBed{Cfg: cfg, Sim: s, Cluster: cluster, Trace: tr}

	// One web server per farm member, on the core above the replicas,
	// listening on the farm port. Every member of a farm serves the same
	// file — they are interchangeable backends.
	webCore := 2 + cfg.ReplicasPerMember
	for fi, farm := range cluster.Farms {
		var row []*app.HTTPD
		for mi, m := range farm.Members {
			h := app.NewHTTPD(m.Host.Thread(core.ThreadLoc{Core: webCore}),
				fmt.Sprintf("lighttpd-f%dm%d", fi, mi), m.Sys.SyscallProc(),
				ipc.DefaultCosts(), app.HTTPDConfig{
					Port:             clusterFarmPort(fi),
					Files:            map[string]int{"/file": cfg.FileSize},
					CyclesPerRequest: AppCyclesPerRequest,
				})
			h.Start()
			row = append(row, h)
		}
		b.Webs = append(b.Webs, row)
	}
	s.RunFor(2 * sim.Millisecond)
	for fi, row := range b.Webs {
		for mi, h := range row {
			if !h.Ready() {
				return nil, fmt.Errorf("experiments: farm %d member %d web failed to listen", fi, mi)
			}
		}
	}

	// Load generators: client k runs one per farm of its tenant,
	// targeting the farm VIP — the L4 service on the switch spreads its
	// flows across the farm members. Each generator walks its own fixed
	// local-port range: generators sharing a client stack would otherwise
	// race for the ephemeral allocator, making the k-th connection's
	// 4-tuple (and so its farm-member placement) depend on event
	// interleaving.
	for k, cl := range cluster.Clients {
		genCore := 4 // client cores: 0 driver, 1 syscall, 2 stack, 3 spare
		for fi, farm := range cluster.Farms {
			if farm.Tenant != cl.Tenant {
				continue
			}
			lg := app.NewLoadgen(cl.Host.AppThread(genCore),
				fmt.Sprintf("httperf-c%df%d", k, fi), cl.Sys.SyscallProc(),
				ipc.DefaultCosts(), app.LoadgenConfig{
					Target: farm.VIP, Port: clusterFarmPort(fi), URI: "/file",
					Conns: cfg.ConnsPerGen, ReqPerConn: cfg.ReqPerConn,
					Timeout: cfg.Timeout,
					Ports:   sequentialPorts(uint16(20000 + len(b.Gens)*2048)),
				})
			b.Gens = append(b.Gens, lg)
			b.GenFarm = append(b.GenFarm, fi)
			genCore++
		}
	}
	return b, nil
}

// sequentialPorts is a local-port plan walking upward from base: the k-th
// connection of one generator always gets base+k, whatever the global
// event order. Ranges of 2048 per generator never collide within a run.
func sequentialPorts(base uint16) app.PortPlan {
	p := base
	return func() uint16 {
		port := p
		p++
		return port
	}
}

// Run starts the load, warms up, measures for window and returns the
// aggregate measurement.
func (b *ClusterBed) Run(warm, window sim.Time) Measurement {
	return runLoad(b.Sim, b.Gens, warm, window)
}

// farmGoodput sums good responses per farm across generators.
func (b *ClusterBed) farmGoodput() []uint64 {
	out := make([]uint64, len(b.Cluster.Farms))
	for i, g := range b.Gens {
		out[b.GenFarm[i]] += g.GoodResponses()
	}
	return out
}

// aggregateConns is the configured concurrent-connection total across all
// generators.
func (b *ClusterBed) aggregateConns() int { return len(b.Gens) * b.Cfg.ConnsPerGen }

// tier buckets one Breakdown span into the cluster's path tiers.
func clusterTier(sp *trace.Span) string {
	switch {
	case sp.Component == "wire":
		return "wire"
	case sp.Component == "switch":
		return "lb (switch + L4 steering)"
	case len(sp.Hop) >= 6 && sp.Hop[:6] == "client":
		return "client machines"
	case sp.Component == "nic" || sp.Component == "driver":
		return "farm machine (NIC + driver)"
	default:
		return "replica (stack + SYSCALL + app)"
	}
}

// clusterTierOrder fixes the render order along the request path.
var clusterTierOrder = []string{
	"client machines",
	"wire",
	"lb (switch + L4 steering)",
	"farm machine (NIC + driver)",
	"replica (stack + SYSCALL + app)",
}

// tierTable aggregates the traced per-hop breakdown into per-tier rows:
// client → wire → LB → farm machine → replica.
func (b *ClusterBed) tierTable(title string) *report.Table {
	type agg struct {
		count       uint64
		queue, proc metrics.Histogram
	}
	tiers := make(map[string]*agg)
	for _, sp := range b.Trace.Breakdown() {
		name := clusterTier(sp)
		a := tiers[name]
		if a == nil {
			a = &agg{}
			tiers[name] = a
		}
		a.count += sp.Count
		a.queue.Merge(&sp.Queue)
		a.proc.Merge(&sp.Proc)
	}
	t := &report.Table{
		Title:   title,
		Columns: []string{"tier", "traversals", "mean queued", "mean busy", "p99 queued"},
	}
	for _, name := range clusterTierOrder {
		a := tiers[name]
		if a == nil {
			continue
		}
		t.AddRow(name, a.count, a.queue.Mean(), a.proc.Mean(), a.queue.Quantile(0.99))
	}
	return t
}

// ClusterPoint is one rung of the connection ladder.
type ClusterPoint struct {
	ConnsPerGen int
	Aggregate   int // total concurrent connections across generators
	KRPS        float64
	Errors      uint64
	MeanLat     sim.Time
	P99Lat      sim.Time
	PerFarm     []uint64 // good responses per farm
}

// clusterLadder runs the connection-count ladder: the same topology at
// increasing per-generator connection counts (each rung a fresh
// simulation, same seed). scale multiplies every rung — the -scale knob
// that turns the container-sized default into a machine-room run (at
// scale 8000 the top rung carries >1.1M aggregate connections).
func clusterLadder(o Options, rungs []int, scale int) ([]ClusterPoint, error) {
	if scale < 1 {
		scale = 1
	}
	var out []ClusterPoint
	for _, r := range rungs {
		cfg := ClusterBedConfig{
			Seed:        o.seed(),
			ConnsPerGen: r * scale,
		}
		b, err := NewClusterBed(cfg)
		if err != nil {
			return nil, err
		}
		m := b.Run(o.farmWarm(), o.farmWindow())
		out = append(out, ClusterPoint{
			ConnsPerGen: cfg.ConnsPerGen,
			Aggregate:   b.aggregateConns(),
			KRPS:        m.KRPS,
			Errors:      m.Errors,
			MeanLat:     m.MeanLat,
			P99Lat:      m.P99Lat,
			PerFarm:     b.farmGoodput(),
		})
	}
	return out, nil
}

func (o Options) farmWarm() sim.Time {
	if o.Quick {
		return 5 * sim.Millisecond
	}
	return 15 * sim.Millisecond
}

func (o Options) farmWindow() sim.Time {
	if o.Quick {
		return 10 * sim.Millisecond
	}
	return 40 * sim.Millisecond
}

// clusterRungs picks the ladder rungs for the options.
func clusterRungs(o Options) []int {
	if o.Quick {
		return []int{2, 4}
	}
	return []int{4, 8, 16}
}

// ClusterScale is the cluster campaign: the connection ladder plus a
// traced per-tier latency breakdown of the default point.
func ClusterScale(o Options) *Result {
	res := &Result{Name: "Cluster scale: L4-balanced NEaT farms behind a switch"}

	points, err := clusterLadder(o, clusterRungs(o), o.clusterScale())
	if err != nil {
		res.Notef("ladder failed: %v", err)
		return res
	}
	probe, err := NewClusterBed(ClusterBedConfig{Seed: o.seed()})
	if err != nil {
		res.Notef("probe bed failed: %v", err)
		return res
	}
	lt := &report.Table{
		Title: fmt.Sprintf("connection ladder: %d farms × %d members × %d replicas, %d clients, %d tenants",
			probe.Cfg.Farms, probe.Cfg.MembersPerFarm, probe.Cfg.ReplicasPerMember,
			probe.Cfg.Clients, probe.Cfg.Tenants),
		Columns: []string{"conns/gen", "aggregate conns", "krps", "errors", "mean lat", "p99 lat", "per-farm good"},
	}
	for _, p := range points {
		lt.AddRow(p.ConnsPerGen, p.Aggregate, p.KRPS, p.Errors, p.MeanLat, p.P99Lat,
			fmt.Sprint(p.PerFarm))
	}
	res.Tables = append(res.Tables, lt)

	// Per-tier latency: a traced run of the default point. Tracing changes
	// no behavior.
	tb, err := NewClusterBed(ClusterBedConfig{Seed: o.seed(), Observe: true})
	if err != nil {
		res.Notef("traced bed failed: %v", err)
		return res
	}
	tb.Run(o.farmWarm(), o.farmWindow())
	res.Tables = append(res.Tables,
		tb.tierTable("per-tier latency: client → LB → farm machine → replica"))

	res.Notef("every farm member shares its farm VIP (direct-server-return); the switch L4 service rewrites only the destination MAC")
	res.Notef("tenant isolation: a tenant's clients resolve only its own VIPs, and each farm steers with its own placer over its own members")
	res.Notef("scale knob: -scale N multiplies every rung (the default fits a 1-CPU container; -scale 8000 puts >1.1M connections on the top rung)")
	return res
}
