package experiments

import (
	"fmt"

	"neat/internal/app"
	"neat/internal/baseline"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// The two system-under-test machines of §6 (testbed.MachineModel).
const (
	AMD  = testbed.AMD  // 12 cores, 1.9 GHz, no SMT
	Xeon = testbed.Xeon // 8 cores × 2 threads, 2.26 GHz
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks warmup/measurement windows and run counts so the unit
	// tests stay fast; the full harness (cmd/neat-bench, benchmarks) runs
	// with Quick=false.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Workers > 1 measures up to that many independent sweep points
	// concurrently; 0 or 1 runs them one after another. Reports are
	// assembled in configuration order afterwards, so the output matches a
	// sequential run byte for byte.
	Workers int
	// Scale multiplies the cluster campaign's connection ladder (default
	// 1, sized for a 1-CPU container; large values target machine-room
	// aggregate connection counts).
	Scale int
}

func (o Options) clusterScale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) warm() sim.Time {
	if o.Quick {
		return 25 * sim.Millisecond
	}
	return 80 * sim.Millisecond
}

func (o Options) window() sim.Time {
	if o.Quick {
		return 50 * sim.Millisecond
	}
	return 200 * sim.Millisecond
}

// BedConfig describes one measured configuration: a server system (NEaT or
// the Linux baseline), its lighttpd instances and the matching httperf
// load generators.
type BedConfig struct {
	Seed    int64
	Machine testbed.MachineModel

	// NEaT configuration (used when LinuxCores == 0).
	Kind         stack.Kind
	ReplicaSlots [][]core.ThreadLoc
	SyscallLoc   core.ThreadLoc
	DriverLoc    core.ThreadLoc // the NIC driver's thread (default core 0)
	// Watchdog switches failure detection to heartbeat probing (the
	// fault-matrix campaign; Table 3 keeps the paper's crash oracle).
	Watchdog bool

	// Linux baseline configuration (used when LinuxCores > 0): kernel
	// context i on core i, web i colocated with context i.
	LinuxCores  int
	LinuxTuning baseline.Tuning

	// Steering configures the server's flow placement plane (zero value:
	// legacy RSS hash).
	Steering steer.Config

	// Guard configures the server replicas' per-replica resource guards
	// (zero value: no guards — the paper's configuration). Client stacks
	// are never guarded.
	Guard tcpeng.GuardConfig

	// IPC tunes the server system's modeled message rings (wake/
	// doorbell coalescing). Zero value: calibrated per-message doorbells.
	IPC ipc.Tuning

	// Workload.
	WebLocs     []core.ThreadLoc // lighttpd i at WebLocs[i], port 8000+i
	FileSize    int              // default 20 bytes
	FileSizes   []int            // per-web override of FileSize (skewed workloads)
	ConnsPerGen int              // default 16
	ReqPerConn  int              // default 100
	ThinkTime   sim.Time
	TSO         bool
	Timeout     sim.Time
	// GenPorts optionally gives load generator i a local-port plan (see
	// app.PortPlan) — the adversarial campaign pins each generator's
	// flows to one replica this way. Nil entries keep ephemeral ports.
	GenPorts []app.PortPlan

	// Observe attaches the observability layer: a message tracer on the
	// whole simulated network plus the server system's lifecycle event
	// timeline, exposed as Bed.Trace. Off by default — measurement beds
	// must not pay for tracing they do not read.
	Observe bool
}

// Bed is an instantiated configuration ready to measure: the testbed's
// two-machine bed plus its web servers and load generators.
type Bed struct {
	*testbed.Bed
	Webs []*app.HTTPD
	Gens []*app.Loadgen
	// Trace is the attached tracer when the bed was built with
	// BedConfig.Observe; nil otherwise.
	Trace *trace.Tracer
}

// NewBed builds and boots a configuration.
func NewBed(cfg BedConfig) (*Bed, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.FileSize == 0 {
		cfg.FileSize = 20
	}
	if cfg.ConnsPerGen == 0 {
		cfg.ConnsPerGen = 16
	}
	if cfg.ReqPerConn == 0 {
		cfg.ReqPerConn = 100
	}
	s := sim.New(cfg.Seed)
	var tr *trace.Tracer
	if cfg.Observe {
		// The bed attaches it before anything is built, so every delivery
		// carries an arrival stamp from the first event on.
		tr = trace.New()
	}

	queues := len(cfg.ReplicaSlots)
	if cfg.LinuxCores > 0 {
		queues = cfg.LinuxCores
	}
	server := cfg.Machine.Host(queues)
	server.Driver = cfg.DriverLoc

	tcp := tcpeng.DefaultConfig()
	tcp.TSO = cfg.TSO
	tcp.Guard = cfg.Guard

	tb, err := testbed.NewBed(s, testbed.BedConfig{
		Trace:  tr,
		Server: server,
		NEaT: core.Config{
			Kind: cfg.Kind, TCP: tcp,
			Slots:    cfg.ReplicaSlots,
			Syscall:  cfg.SyscallLoc,
			Watchdog: cfg.Watchdog,
			Steering: cfg.Steering,
			Costs:    ServerStackCosts(),
			IPC:      cfg.IPC,
		},
		LinuxCores:   cfg.LinuxCores,
		LinuxTuning:  cfg.LinuxTuning,
		ClientStacks: len(cfg.WebLocs),
	})
	if err != nil {
		return nil, err
	}
	b := &Bed{Bed: tb, Trace: tr}

	// Web servers.
	for i, loc := range cfg.WebLocs {
		var syscallProc *sim.Proc
		if b.NEaT != nil {
			syscallProc = b.NEaT.SyscallProc()
		} else {
			syscallProc = b.Linux.KernelProc(i % b.Linux.NumContexts())
		}
		size := cfg.FileSize
		if i < len(cfg.FileSizes) && cfg.FileSizes[i] > 0 {
			size = cfg.FileSizes[i]
		}
		h := app.NewHTTPD(b.Server.Thread(loc), fmt.Sprintf("lighttpd%d", i), syscallProc,
			ipc.DefaultCosts(), app.HTTPDConfig{
				Port:             uint16(8000 + i),
				Files:            map[string]int{"/file": size},
				CyclesPerRequest: AppCyclesPerRequest,
			})
		h.Start()
		b.Webs = append(b.Webs, h)
	}
	s.RunFor(2 * sim.Millisecond)
	for i, h := range b.Webs {
		if !h.Ready() {
			return nil, fmt.Errorf("experiments: lighttpd %d failed to listen", i)
		}
	}

	// Load generators: one per web instance/port.
	for i := range cfg.WebLocs {
		lcfg := app.LoadgenConfig{
			Target: b.Server.IP, Port: uint16(8000 + i), URI: "/file",
			Conns: cfg.ConnsPerGen, ReqPerConn: cfg.ReqPerConn,
			ThinkTime: cfg.ThinkTime, Timeout: cfg.Timeout,
		}
		if i < len(cfg.GenPorts) {
			lcfg.Ports = cfg.GenPorts[i]
		}
		lg := app.NewLoadgen(b.Client.AppThread(2+len(cfg.WebLocs)+i), fmt.Sprintf("httperf%d", i),
			b.CliSys.SyscallProc(), ipc.DefaultCosts(), lcfg)
		b.Gens = append(b.Gens, lg)
	}
	return b, nil
}

// Measurement is one httperf-style report plus server-side observations.
type Measurement struct {
	KRPS    float64 // good responses (errors discarded) per second / 1000
	RawKRPS float64
	Errors  uint64
	MBps    float64 // body throughput
	MeanLat sim.Time
	P99Lat  sim.Time
	Window  sim.Time
	Latency metrics.Histogram
}

// Run starts the load, warms up, measures for window and reports.
func (b *Bed) Run(warm, window sim.Time) Measurement {
	return runLoad(b.Net.Sim, b.Gens, warm, window)
}

// runLoad starts gens, warms up, measures for window and reports. The
// measurement is derived from the generators' workload registry — the
// registry is the source of truth, Measurement its httperf-style view.
func runLoad(s *sim.Simulator, gens []*app.Loadgen, warm, window sim.Time) Measurement {
	for _, g := range gens {
		g.Start()
	}
	s.RunFor(warm)
	for _, g := range gens {
		g.BeginMeasure()
	}
	s.RunFor(window)
	return measurementFrom(loadRegistry(gens), window)
}

// loadRegistry collects the load generators' counters into a fresh
// registry (the client-side "httperf report" instruments).
func loadRegistry(gens []*app.Loadgen) *metrics.Registry {
	r := metrics.NewRegistry()
	good := r.Counter("loadgen.responses_good")
	raw := r.Counter("loadgen.window_responses")
	bytes := r.Counter("loadgen.window_bytes")
	errs := r.Counter("loadgen.conn_errors")
	lat := r.Histogram("loadgen.latency")
	for _, g := range gens {
		st := g.Stats()
		good.Add(g.GoodResponses())
		raw.Add(st.WindowResponses)
		bytes.Add(st.WindowBytes)
		errs.Add(st.ConnErrors)
		lat.Merge(g.Latency())
	}
	return r
}

// Registry assembles the bed's full observability registry: the workload
// instruments plus the server and client systems' metrics under "server."
// and "client." prefixes and the link counters.
func (b *Bed) Registry() *metrics.Registry {
	r := loadRegistry(b.Gens)
	if b.NEaT != nil {
		r.Absorb("server.", b.NEaT.Metrics())
	}
	if b.CliSys != nil {
		r.Absorb("client.", b.CliSys.Metrics())
	}
	ls := b.Net.Link.Stats()
	r.SetCounter("link.frames_from_server", ls.Frames[0])
	r.SetCounter("link.frames_from_client", ls.Frames[1])
	r.SetCounter("link.dropped_from_server", ls.Dropped[0])
	r.SetCounter("link.dropped_from_client", ls.Dropped[1])
	ts := b.Net.Sim.TimerStats()
	r.SetCounter("sim.timers.pending", uint64(ts.Pending))
	r.SetCounter("sim.timers.cascades", ts.Cascades)
	r.SetCounter("sim.timers.fired", ts.Fired)
	for _, ps := range b.Net.Sim.PoolStats() {
		r.SetCounter("sim.pool."+ps.Kind+".outstanding", uint64(ps.Outstanding))
	}
	is := b.Net.Sim.IPCStats()
	r.SetCounter("sim.ipc.sends", is.Sends)
	r.SetCounter("sim.ipc.slow_path", is.SlowPath)
	r.SetCounter("sim.ipc.wakes_saved", is.WakesSaved)
	r.SetCounter("sim.ipc.stalls", is.Stalls)
	r.SetCounter("sim.ipc.depth_hw", uint64(is.DepthHW))
	r.SetCounter("sim.ipc.batches", is.Batches)
	r.SetCounter("sim.ipc.batch_msgs", is.BatchMsgs)
	for i, n := range is.BatchHist {
		if n > 0 {
			r.SetCounter("sim.ipc.batch."+sim.IPCBatchBucketLabel(i), n)
		}
	}
	return r
}

// measurementFrom derives the httperf-style report from the workload
// registry.
func measurementFrom(r *metrics.Registry, window sim.Time) Measurement {
	var m Measurement
	m.Window = window
	m.KRPS = metrics.KRate(r.Counter("loadgen.responses_good").Value(), window)
	m.RawKRPS = metrics.KRate(r.Counter("loadgen.window_responses").Value(), window)
	m.Errors = r.Counter("loadgen.conn_errors").Value()
	m.MBps = float64(r.Counter("loadgen.window_bytes").Value()) / (1 << 20) / window.Seconds()
	m.Latency = *r.Histogram("loadgen.latency")
	m.MeanLat = m.Latency.Mean()
	m.P99Lat = m.Latency.Quantile(0.99)
	return m
}
