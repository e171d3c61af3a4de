package stack

import (
	"cmp"
	"fmt"
	"slices"

	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/udpeng"
)

// Kind selects the replica layout.
type Kind int

// Replica layouts (§3.7).
const (
	// Single runs the whole stack in one process ("NEaT Nx").
	Single Kind = iota
	// Multi splits packet filter+IP(+UDP) and TCP into two processes
	// ("Multi Nx").
	Multi
)

// String names the kind.
func (k Kind) String() string {
	if k == Single {
		return "single"
	}
	return "multi"
}

// Config assembles a replica.
type Config struct {
	Name  string
	Kind  Kind
	IP    ipeng.Config
	TCP   tcpeng.Config
	Costs Costs
	IPC   ipc.Costs
}

// Replica is one partition of the network stack: its own TCP/IP state, its
// own processes, its own NIC queue. Replicas never talk to each other.
type Replica struct {
	name  string
	kind  Kind
	s     *sim.Simulator
	cfg   Config
	costs *opCosts

	// procs is {stack} for Single and {ip, tcp} for Multi: the entry
	// process first, the socket process last.
	procs []*sim.Proc
	iph   *ipHost
	tcph  *tcpHost

	// Rebindable channels between the components of a Multi replica (nil
	// for Single); the recovery manager splices restarted processes in.
	connToTCP *ipc.Conn
	connToIP  *ipc.Conn
	driver    *sim.Proc

	// OnConnCreated fires when an active open allocates its 4-tuple; the
	// NEaT manager installs the NIC flow filter here, BEFORE the SYN goes
	// out, so the SYN-ACK already steers to the owning replica (§3.3:
	// "both the NIC and the libraries must honor the choice").
	OnConnCreated func(r *Replica, c *tcpeng.Conn)
	// OnCheckpoint receives periodic TCP snapshots when checkpointing is
	// enabled; the manager stores the latest one per replica.
	OnCheckpoint func(r *Replica, snap *tcpeng.Snapshot)
	// OnRestored reports how many connections a checkpoint restore
	// revived.
	OnRestored func(r *Replica, n int)
	// OnConnEstablished/OnConnRemoved are the NEaT manager hooks for
	// installing/removing NIC flow filters and tracking connection counts
	// (lazy termination, §3.4). Called on the TCP process's dispatch.
	OnConnEstablished func(r *Replica, c *tcpeng.Conn)
	OnConnRemoved     func(r *Replica, c *tcpeng.Conn)

	dead bool
}

// NewReplica builds a replica pinned to the given hardware threads:
// threads[0] hosts the (single-component) stack or the IP process;
// Multi additionally requires threads[1] for the TCP process.
// driver is the NIC driver process frames are transmitted through.
func NewReplica(threads []*sim.HWThread, driver *sim.Proc, cfg Config) *Replica {
	if cfg.Kind == Multi && len(threads) < 2 {
		panic("stack: multi-component replica needs two hardware threads")
	}
	if cfg.Name == "" {
		cfg.Name = "stack"
	}
	r := &Replica{name: cfg.Name, kind: cfg.Kind, s: threads[0].Machine().Sim(),
		cfg: cfg, driver: driver,
		costs: &opCosts{Costs: cfg.Costs, connect: cfg.Costs.TCPConnSetup}}

	switch cfg.Kind {
	case Single:
		r.procs = []*sim.Proc{r.buildSingle(threads[0])}
	case Multi:
		r.procs = []*sim.Proc{r.buildIPHost(threads[0]), r.buildTCPHost(threads[1])}
	}
	return r
}

// newIPHost constructs a fresh ipHost (engines rebuilt from configuration —
// the component is stateless, §3.7) whose frames leave through out.
func (r *Replica) newIPHost(out Egress) *ipHost {
	h := &ipHost{s: r.s, costs: r.costs, out: out, udpSocks: map[uint64]*udpSockCtx{},
		appConns: map[*sim.Proc]*ipc.Conn{}, ipcCosts: r.cfg.IPC}
	h.ip = ipeng.NewEngine(h, r.cfg.IP)
	h.udp = udpeng.NewEngine(h, r.cfg.IP.Addr)
	return h
}

// newTCPHost constructs a fresh tcpHost with an empty TCP engine.
func (r *Replica) newTCPHost() *tcpHost {
	n := tcpHosts.Of(r.s)
	*n++
	h := &tcpHost{r: r, s: r.s, costs: r.costs, host: *n,
		listeners: map[uint64]*tcpeng.Listener{},
		appConns:  map[*sim.Proc]*ipc.Conn{}, ipcCosts: r.cfg.IPC}
	h.tcp = tcpeng.NewEngine(h, r.cfg.IP.Addr, r.cfg.TCP)
	return h
}

// toDriver is a replica's egress: a fresh channel to its NIC driver.
func (r *Replica) toDriver() Egress { return driverEgress{ipc.New(r.driver, r.cfg.IPC)} }

func stackProcConfig(component string) sim.ProcConfig {
	return sim.ProcConfig{Component: component,
		WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 80}
}

// Engines is an in-process engine set: an ipHost and a tcpHost joined by
// direct calls. It is the whole stack of a single-component replica, and
// the shared kernel state the Linux baseline's kernel contexts all run.
// It is also the handler of the processes that run it.
type Engines struct {
	iph  *ipHost
	tcph *tcpHost
}

// NewEngines builds the engine set of a stack that is not a NEaT replica —
// the Linux baseline's. cfg.Costs is its per-operation cycle table; connect
// is what an active open costs and lock what each operation on shared
// state adds. Frames leave through out. No manager hooks are installed.
func NewEngines(s *sim.Simulator, cfg Config, connect, lock int64, out Egress) *Engines {
	r := &Replica{s: s, cfg: cfg, costs: &opCosts{Costs: cfg.Costs, connect: connect, lock: lock}}
	return r.newEngines(out)
}

func (r *Replica) newEngines(out Egress) *Engines {
	e := &Engines{iph: r.newIPHost(out), tcph: r.newTCPHost()}
	e.iph.toTCP = e.tcph.segmentIn
	e.tcph.outFrame = func(ctx *sim.Context, dst proto.Addr, p proto.IPProto, frame []byte) {
		e.iph.ip.OutputFrame(dst, p, frame)
	}
	e.tcph.outTSO = func(ctx *sim.Context, t ipeng.TSO) {
		e.iph.ip.OutputTSO(t)
	}
	return e
}

// buildSingle (re)creates the whole single-component stack on one thread.
func (r *Replica) buildSingle(th *sim.HWThread) *sim.Proc {
	e := r.newEngines(r.toDriver())
	r.iph, r.tcph = e.iph, e.tcph
	// A single-component replica is one process; its fault-injection
	// component label is "tcp" because the TCP engine dominates both the
	// code size and the state (the injector refines by code-size weights).
	return sim.NewProc(th, r.name, e, stackProcConfig("tcp"))
}

// buildIPHost (re)creates the PF+IP+UDP process of a Multi replica.
func (r *Replica) buildIPHost(th *sim.HWThread) *sim.Proc {
	r.iph = r.newIPHost(r.toDriver())
	p := sim.NewProc(th, r.name+".ip", &ipHandler{r.iph}, stackProcConfig("ip"))
	if r.connToTCP == nil {
		r.connToTCP = ipc.New(nil, r.cfg.IPC)
	}
	if r.connToIP == nil {
		r.connToIP = ipc.New(nil, r.cfg.IPC)
	}
	r.connToIP.Rebind(p)
	toTCP := r.connToTCP
	r.iph.toTCP = func(ctx *sim.Context, f *proto.Frame) {
		// The frame box crosses the component boundary as-is: it is already
		// pooled and reference-counted, so no wrapper message is needed.
		toTCP.Send(ctx, f)
	}
	return p
}

// buildTCPHost (re)creates the TCP process of a Multi replica.
func (r *Replica) buildTCPHost(th *sim.HWThread) *sim.Proc {
	r.tcph = r.newTCPHost()
	p := sim.NewProc(th, r.name+".tcp", &tcpHandler{r.tcph}, stackProcConfig("tcp"))
	if r.connToTCP == nil {
		r.connToTCP = ipc.New(nil, r.cfg.IPC)
	}
	if r.connToIP == nil {
		r.connToIP = ipc.New(nil, r.cfg.IPC)
	}
	r.connToTCP.Rebind(p)
	toIP := r.connToIP
	r.tcph.outFrame = func(ctx *sim.Context, dst proto.Addr, p proto.IPProto, frame []byte) {
		toIP.Send(ctx, newIPOutput(ctx.Sim, dst, p, frame))
	}
	r.tcph.outTSO = func(ctx *sim.Context, t ipeng.TSO) {
		toIP.Send(ctx, newIPOutputTSO(ctx.Sim, t.Dst, t.TCP, t.Payload, t.MSS))
	}
	return p
}

// RestartIP replaces a dead IP process of a Multi replica with a fresh,
// stateless incarnation on thread th. Existing TCP state (and therefore
// all connections) survives — this is the paper's transparent recovery
// path for stateless components (§6.6).
func (r *Replica) RestartIP(th *sim.HWThread) *sim.Proc {
	if r.kind != Multi {
		panic("stack: RestartIP on a single-component replica")
	}
	tcp := r.procs[1]
	r.procs = []*sim.Proc{r.buildIPHost(th), tcp}
	r.dead = tcp.Dead()
	return r.procs[0]
}

// RestartTCP replaces a dead TCP process of a Multi replica. All TCP
// connection state is lost (stateless recovery, §3.6); listening sockets
// must be re-announced by the manager.
func (r *Replica) RestartTCP(th *sim.HWThread) *sim.Proc {
	if r.kind != Multi {
		panic("stack: RestartTCP on a single-component replica")
	}
	ip := r.procs[0]
	r.procs = []*sim.Proc{ip, r.buildTCPHost(th)}
	r.dead = ip.Dead()
	return r.procs[1]
}

// Rebuild replaces a dead single-component replica with a fresh incarnation
// on thread th. All state is lost.
func (r *Replica) Rebuild(th *sim.HWThread) *sim.Proc {
	if r.kind != Single {
		panic("stack: Rebuild is for single-component replicas")
	}
	r.procs = []*sim.Proc{r.buildSingle(th)}
	r.dead = false
	return r.procs[0]
}

// ConnOwner returns the application process owning a connection's socket
// and the handle the connection's events carry; the process is nil for a
// connection no application owns.
func (r *Replica) ConnOwner(c *tcpeng.Conn) (*sim.Proc, Handle) {
	if sc, ok := c.Ctx.(*sockCtx); ok {
		return sc.app, sc.h
	}
	return nil, Handle{}
}

// OwnedConns returns the connections of the replica's TCP engine that a
// socket owns, in ConnID order: every active open from its OpConnect on,
// every accepted connection from its accept on, until the engine removes
// the PCB. Embryonic connections, which no application has seen, are left
// out.
func (r *Replica) OwnedConns() []*tcpeng.Conn {
	var out []*tcpeng.Conn
	r.TCP().EachConn(func(c *tcpeng.Conn) {
		if _, ok := c.Ctx.(*sockCtx); ok {
			out = append(out, c)
		}
	})
	slices.SortFunc(out, func(a, b *tcpeng.Conn) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Kind returns the replica layout.
func (r *Replica) Kind() Kind { return r.kind }

// Procs returns the replica's processes.
func (r *Replica) Procs() []*sim.Proc { return r.procs }

// EntryProc returns the process the NIC driver must deliver RX frames to.
func (r *Replica) EntryProc() *sim.Proc { return r.procs[0] }

// SockProc returns the process applications address socket operations to.
func (r *Replica) SockProc() *sim.Proc { return r.procs[len(r.procs)-1] }

// TCP returns the replica's TCP engine (tests and the manager inspect it).
func (r *Replica) TCP() *tcpeng.Engine { return r.tcph.tcp }

// Kill crashes every process of the replica, losing all its state — the
// paper's replica-failure model (§3.6).
func (r *Replica) Kill() {
	r.dead = true
	for _, p := range r.procs {
		p.Kill()
	}
}

// String describes the replica.
func (r *Replica) String() string {
	return fmt.Sprintf("%s(%s, %s)", r.name, r.kind, r.iph.ip.Addr())
}

// ---- process handlers ----
//
// Every handler implements sim.BatchHandler: the bracket installs the
// hosts' dispatch context once per activation, and engine callbacks reach
// it through the host for the whole drain. The bracket is bookkeeping only:
// it charges no cycles and sends no messages, so a simulation is
// byte-identical with or without it.

// BeginBatch implements sim.BatchHandler.
func (e *Engines) BeginBatch(ctx *sim.Context, n int) { e.iph.ctx, e.tcph.ctx = ctx, ctx }

// EndBatch implements sim.BatchHandler.
func (e *Engines) EndBatch() { e.iph.ctx, e.tcph.ctx = nil, nil }

// HandleMessage implements sim.Handler: frames, timers and every socket
// operation of the engine set.
func (e *Engines) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case *proto.Frame:
		e.iph.inputFrame(ctx, m)
	case tickMsg:
		m.fn()
	case *tcpeng.ConnTimer:
		e.tcph.onTimer(ctx, m)
	default:
		if !e.tcph.handleOp(ctx, msg) {
			e.iph.handleOp(ctx, msg)
		}
	}
}

// Input runs one received frame through the packet filter and the IP
// engine; ownership of f arrives with the call.
func (e *Engines) Input(ctx *sim.Context, f *proto.Frame) { e.iph.inputFrame(ctx, f) }

// TCP returns the engine set's TCP engine.
func (e *Engines) TCP() *tcpeng.Engine { return e.tcph.tcp }

// LockedOps reports how many operations on shared state have been charged.
func (e *Engines) LockedOps() uint64 { return e.iph.costs.locked }

// ipHandler is the multi-component PF+IP(+UDP) process.
type ipHandler struct{ h *ipHost }

// BeginBatch implements sim.BatchHandler.
func (ih *ipHandler) BeginBatch(ctx *sim.Context, n int) { ih.h.ctx = ctx }

// EndBatch implements sim.BatchHandler.
func (ih *ipHandler) EndBatch() { ih.h.ctx = nil }

func (ih *ipHandler) HandleMessage(ctx *sim.Context, msg sim.Message) {
	h := ih.h
	switch m := msg.(type) {
	case *proto.Frame:
		h.inputFrame(ctx, m)
	case *ipOutput:
		h.ip.OutputFrame(m.dst, m.proto, m.frame) // takes ownership of the frame
		m.recycle()
	case *ipOutputTSO:
		h.ip.OutputTSO(ipeng.TSO{TCP: m.hdr, Dst: m.dst, Payload: m.payload, MSS: m.mss})
		m.recycle()
	case tickMsg:
		m.fn()
	default:
		h.handleOp(ctx, msg)
	}
}

// tcpHandler is the multi-component TCP process.
type tcpHandler struct{ h *tcpHost }

// BeginBatch implements sim.BatchHandler.
func (th *tcpHandler) BeginBatch(ctx *sim.Context, n int) { th.h.ctx = ctx }

// EndBatch implements sim.BatchHandler.
func (th *tcpHandler) EndBatch() { th.h.ctx = nil }

func (th *tcpHandler) HandleMessage(ctx *sim.Context, msg sim.Message) {
	h := th.h
	switch m := msg.(type) {
	case *proto.Frame:
		h.segmentIn(ctx, m) // inbound segment from the IP process
	case *tcpeng.ConnTimer:
		h.onTimer(ctx, m)
	case tickMsg:
		m.fn()
	default:
		h.handleOp(ctx, msg)
	}
}
