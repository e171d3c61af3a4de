// Package core implements NEaT itself: the management plane that turns a
// set of isolated stack replicas into one logical network stack (§3).
//
// It owns:
//
//   - replica lifecycle — spawning replicas on dedicated hardware threads,
//     binding each to its NIC queue, and replaying listening sockets to new
//     incarnations;
//   - connection steering — installing exact flow-director filters in the
//     NIC as connections establish, removing them as connections die, and
//     feeding the active replica set to the flow placement plane
//     (internal/steer), which drives the NIC's RSS indirection and the
//     connect-side replica choice through a pluggable policy (§4; hash,
//     consistent-hash ring, or power-of-two-choices least-loaded);
//   - failure recovery — a crashed component is replaced by a fresh
//     process; stateless components (PF/IP/UDP) recover transparently,
//     while a TCP (or single-component) crash loses exactly that replica's
//     connections and nothing else (§3.6, Table 3);
//   - scaling — spawning replicas under load and lazily terminating them
//     when load drops: terminating replicas leave the placement plane but
//     serve their existing connections until the count drops to zero
//     (§3.4);
//   - the SYSCALL server, which fans out listens and routes connects to
//     the replica the placement policy picks (random under the default
//     hash policy) — the address-space re-randomization of §3.8 falls out
//     of that choice because every replica incarnation has a fresh ASLR
//     seed.
package core

import (
	"errors"
	"fmt"

	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/nicdev"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/sysserver"
	"neat/internal/tcpeng"
	"neat/internal/trace"
)

// SlotState is the lifecycle state of a replica slot.
type SlotState int

// Slot states.
const (
	slotEmpty SlotState = iota
	slotActive
	slotTerminating // lazy termination: draining connections (§3.4)
	slotRecovering
	// slotQuarantined is the escalation terminus: the slot failed too many
	// times within the sliding window and is permanently fenced — processes
	// killed, queue unbound, no further respawns.
	slotQuarantined
)

// String names the state.
func (s SlotState) String() string {
	switch s {
	case slotEmpty:
		return "empty"
	case slotActive:
		return "active"
	case slotTerminating:
		return "terminating"
	case slotRecovering:
		return "recovering"
	case slotQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// Config assembles a NEaT system.
type Config struct {
	// Stack is the replica template (Name is overridden per replica).
	Stack stack.Config
	// Threads lists, per replica slot, the hardware threads its processes
	// run on (1 for single-component, 2 for multi-component). Every slot
	// boots active; the number of slots bounds the replica count and must
	// not exceed the NIC queue count.
	Threads [][]*sim.HWThread
	// NIC and Driver are the shared device and its driver process.
	NIC    *nicdev.NIC
	Driver *nicdev.Driver
	// SyscallThread hosts the SYSCALL server.
	SyscallThread *sim.HWThread
	// UseFlowFilters steers established connections with exact NIC
	// filters; disabling it is the pure-RSS ablation.
	UseFlowFilters bool
	// CheckpointInterval enables checkpoint-based stateful TCP recovery
	// (§2.1's alternative to stateless recovery): every interval each
	// replica snapshots its TCP state, and after a TCP crash the new
	// incarnation restores the latest snapshot instead of losing the
	// connections. 0 disables (the paper's default, stateless recovery).
	CheckpointInterval sim.Time
	// Steering selects the flow-placement policy (internal/steer). The
	// zero value is the paper's placement: hash steering with a uniformly
	// random connect-side choice.
	Steering steer.Config
	// Watchdog switches failure detection to heartbeat probing (watchdog.go).
	// Disabled by default: paper-fidelity mode keeps the instantaneous
	// crash oracle of §3.6. Enabling it supervises every stack component,
	// the NIC driver and the SYSCALL server with periodic heartbeats, which
	// also detects hangs/livelocks the oracle cannot see.
	Watchdog bool
	// Trace, when non-nil, receives the management plane's lifecycle
	// events (respawns, escalations, quarantines, RSS rebinds, scaling).
	// Callers who also want per-message latency breakdowns attach the same
	// tracer to the simulator (trace.Tracer.Attach) before the run. Nil
	// (the default) fires no trace points and keeps no events.
	Trace *trace.Tracer
}

// recoveryDelay models the time the reincarnation server needs to spawn a
// replacement process; the watchdog's respawn backoff doubles it.
const recoveryDelay = 500 * sim.Microsecond

// Stats counts management-plane events.
type Stats struct {
	Recoveries          uint64 // replica/component restarts
	TCPStateLost        uint64 // recoveries that lost TCP connections
	TransparentRecov    uint64 // recoveries with no visible state loss
	ConnectionsLost     uint64 // connections dropped by failures
	Checkpoints         uint64
	ConnectionsRestored uint64
	ScaleUps            uint64
	ScaleDowns          uint64
	ReplicasGarbage     uint64 // lazily terminated replicas collected
	FiltersInstalled    uint64
	FiltersRemoved      uint64
	SecondaryCrashes    uint64 // crashes merged into an in-flight recovery
	ReplicaRebuilds     uint64 // whole-replica rebuilds (escalation step 2)
	SlotsQuarantined    uint64 // slots fenced by escalation (step 3)
	DriverRecoveries    uint64 // NIC driver respawns
	SyscallRecoveries   uint64 // SYSCALL server respawns
}

// ErrNoFreeSlot is returned by ScaleUp when every slot is in use.
var ErrNoFreeSlot = errors.New("core: no free replica slot")

// System is one NEaT network stack: N replicas, a SYSCALL server, a NIC.
type System struct {
	s   *sim.Simulator
	cfg Config

	slots []*slot
	sys   *sysserver.Server

	// placer is the flow-placement plane: the single authority consulted
	// by the NIC's RSS indirection, ConnectTarget and scale-down victim
	// selection (internal/steer).
	placer steer.Placer

	listens []stack.OpListen

	// conns tracks (replica, connID) → connection for crash notification.
	conns map[*stack.Replica]map[uint64]*tcpeng.Conn

	// checkpoints holds the latest TCP snapshot per slot (stateful
	// recovery mode).
	checkpoints map[int]*tcpeng.Snapshot

	// expectedKills marks processes being killed intentionally (GC of
	// terminated replicas) so the crash watcher ignores them.
	expectedKills map[*sim.Proc]bool

	// mgmtConns are the management plane's injection channels, one per
	// target process, created lazily: every manager→component message goes
	// through internal/ipc rather than writing into the process directly.
	mgmtConns map[*sim.Proc]*ipc.Conn

	// wd is the heartbeat failure detector (nil in paper-fidelity mode).
	wd *Watchdog

	// Sliding failure windows for the singleton system services, driving
	// their exponential respawn backoff.
	driverFails  []sim.Time
	syscallFails []sim.Time

	stats Stats
}

type slot struct {
	index   int
	state   SlotState
	replica *stack.Replica
	threads []*sim.HWThread

	// failTimes is the slot's sliding failure window (escalation + backoff).
	failTimes []sim.Time

	// Recovery-cycle bookkeeping: set when the slot enters slotRecovering,
	// updated if further components die before the respawn fires, consumed
	// by completeRecovery. Keeping it on the slot (instead of captured in
	// the After closure) is what lets a second crash within the
	// recoveryDelay window merge into the cycle instead of being dropped.
	recPrev        SlotState
	recTCPLost     bool
	recStateful    bool
	recTransparent bool
	recSnap        *tcpeng.Snapshot
}

// New boots a NEaT system.
func New(s *sim.Simulator, cfg Config) (*System, error) {
	if cfg.NIC == nil || cfg.Driver == nil {
		return nil, errors.New("core: NIC and Driver are required")
	}
	if len(cfg.Threads) == 0 {
		return nil, errors.New("core: at least one replica slot required")
	}
	if len(cfg.Threads) > cfg.NIC.NumQueues() {
		return nil, fmt.Errorf("core: %d slots but NIC has %d queues",
			len(cfg.Threads), cfg.NIC.NumQueues())
	}
	// Every component of the system lives on the SYSCALL server's machine;
	// schedule on that machine's domain (identical to s outside PDES mode).
	s = cfg.SyscallThread.Machine().Sim()
	sys := &System{
		s: s, cfg: cfg,
		conns:         map[*stack.Replica]map[uint64]*tcpeng.Conn{},
		expectedKills: map[*sim.Proc]bool{},
		checkpoints:   map[int]*tcpeng.Snapshot{},
		mgmtConns:     map[*sim.Proc]*ipc.Conn{},
	}
	for i := range cfg.Threads {
		sys.slots = append(sys.slots, &slot{index: i, threads: cfg.Threads[i]})
	}
	placer, err := steer.New(cfg.Steering, s.Rand(), sys.slotConns)
	if err != nil {
		return nil, err
	}
	sys.placer = placer
	cfg.NIC.SetRSSPolicy(placer)
	sys.sys = sysserver.New(cfg.SyscallThread, sys, cfg.Stack.IPC)
	for _, sl := range sys.slots {
		sys.activate(sl)
	}
	sys.updatePlacement()
	sys.eventf("steer", "placement policy %s", placer.Name())
	if cfg.CheckpointInterval > 0 {
		sys.scheduleCheckpoints()
	}
	if cfg.Watchdog {
		// Watchdog mode: no crash oracle — failures are detected (and hangs
		// can only be detected) by missed heartbeats. The whole plane is
		// supervised: driver, SYSCALL server, every replica.
		sys.wd = newWatchdog(sys)
		sys.wd.Watch(cfg.Driver.Proc())
		sys.wd.Watch(sys.sys.Proc())
		for _, sl := range sys.slots {
			sys.superviseReplica(sl)
		}
	} else {
		s.OnCrash(sys.onCrash)
	}
	return sys, nil
}

// SyscallProc returns the SYSCALL server process — the address
// applications send control-plane socket calls to.
func (sys *System) SyscallProc() *sim.Proc { return sys.sys.Proc() }

// Syscall returns the SYSCALL server.
func (sys *System) Syscall() *sysserver.Server { return sys.sys }

// Driver returns the NIC driver the system manages.
func (sys *System) Driver() *nicdev.Driver { return sys.cfg.Driver }

// Watchdog returns the heartbeat failure detector, or nil in
// paper-fidelity (instant-oracle) mode.
func (sys *System) Watchdog() *Watchdog { return sys.wd }

// slotConns is the placement plane's load feed: live connections on slot
// i's replica (the same figure Metrics exports as
// core.replicaN.connections).
func (sys *System) slotConns(i int) int {
	if i < 0 || i >= len(sys.slots) || sys.slots[i].replica == nil {
		return 0
	}
	return sys.slots[i].replica.TCP().NumConns()
}

// Stats returns a snapshot of the management counters.
func (sys *System) Stats() Stats { return sys.stats }

// Trace returns the attached lifecycle tracer, or nil when the system was
// built without observability.
func (sys *System) Trace() *trace.Tracer { return sys.cfg.Trace }

// eventf records a lifecycle event on the observability timeline. With no
// tracer attached (the default) it returns before formatting anything.
func (sys *System) eventf(kind, format string, args ...interface{}) {
	if sys.cfg.Trace == nil {
		return
	}
	sys.cfg.Trace.Emit(kind, fmt.Sprintf(format, args...))
}

// Metrics collects the system's live counters into a fresh registry:
// management-plane stats, NIC and driver counters, SYSCALL server
// activity, watchdog detector stats (when enabled) and per-process
// dispatch/cost statistics. Collection is pull-style — nothing on the hot
// path writes to the registry, so building one costs only at read time.
func (sys *System) Metrics() *metrics.Registry {
	r := metrics.NewRegistry()
	st := sys.stats
	r.SetCounter("core.recoveries", st.Recoveries)
	r.SetCounter("core.tcp_state_lost", st.TCPStateLost)
	r.SetCounter("core.transparent_recoveries", st.TransparentRecov)
	r.SetCounter("core.connections_lost", st.ConnectionsLost)
	r.SetCounter("core.checkpoints", st.Checkpoints)
	r.SetCounter("core.connections_restored", st.ConnectionsRestored)
	r.SetCounter("core.scale_ups", st.ScaleUps)
	r.SetCounter("core.scale_downs", st.ScaleDowns)
	r.SetCounter("core.replicas_collected", st.ReplicasGarbage)
	r.SetCounter("core.filters_installed", st.FiltersInstalled)
	r.SetCounter("core.filters_removed", st.FiltersRemoved)
	r.SetCounter("core.secondary_crashes", st.SecondaryCrashes)
	r.SetCounter("core.replica_rebuilds", st.ReplicaRebuilds)
	r.SetCounter("core.slots_quarantined", st.SlotsQuarantined)
	r.SetCounter("core.driver_recoveries", st.DriverRecoveries)
	r.SetCounter("core.syscall_recoveries", st.SyscallRecoveries)

	ns := sys.cfg.NIC.Stats()
	r.SetCounter("nic.rx_frames", ns.RxFrames)
	r.SetCounter("nic.rx_drop_full", ns.RxDropFull)
	r.SetCounter("nic.rx_drop_bad", ns.RxDropBad)
	r.SetCounter("nic.rx_drop_no_rss", ns.RxDropNoRSS)
	r.SetCounter("nic.rx_filtered", ns.RxFiltered)
	r.SetCounter("nic.rx_hashed", ns.RxHashed)
	r.SetCounter("nic.tx_frames", ns.TxFrames)
	r.SetCounter("nic.tso_requests", ns.TSORequests)
	r.SetCounter("nic.tso_segments", ns.TSOSegments)

	ds := sys.cfg.Driver.Stats()
	r.SetCounter("driver.rx_dispatched", ds.RxDispatched)
	r.SetCounter("driver.rx_unbound", ds.RxUnbound)
	r.SetCounter("driver.tx_sent", ds.TxSent)
	r.SetCounter("driver.polls", ds.Polls)

	ss := sys.sys.Stats()
	r.SetCounter("syscall.listens", ss.Listens)
	r.SetCounter("syscall.connects", ss.Connects)
	r.SetCounter("syscall.udp_binds", ss.UDPBinds)

	// Resource-guard activity, summed across live replicas (all zero
	// unless SystemConfig.Guard enables a guard). The split between
	// attacked and clean replicas shows up in the per-replica connection
	// gauges; the totals here are what the goodput-under-attack campaign
	// asserts on.
	var synShed, slowReaped uint64
	var cookiesSent, cookiesValidated, cookiesRejected uint64
	for _, sl := range sys.slots {
		if sl.replica == nil {
			continue
		}
		ts := sl.replica.TCP().Stats()
		synShed += ts.SynShed
		slowReaped += ts.SlowlorisReaped
		cookiesSent += ts.SynCookiesSent
		cookiesValidated += ts.SynCookiesValidated
		cookiesRejected += ts.SynCookiesRejected
	}
	r.SetCounter("stack.syn_shed", synShed)
	r.SetCounter("stack.slowloris_reaped", slowReaped)
	r.SetCounter("stack.syn_cookies_sent", cookiesSent)
	r.SetCounter("stack.syn_cookies_validated", cookiesValidated)
	r.SetCounter("stack.syn_cookies_rejected", cookiesRejected)

	// Per-replica live connection gauges: the load signal the least-loaded
	// steering policy balances on, exported so experiments can report
	// placement imbalance — plus the PCB pool occupancy split (hot compact
	// structs vs buffer-attached ones, and the recycled free lists).
	for i, sl := range sys.slots {
		if sl.state == slotActive || sl.state == slotTerminating {
			r.SetGauge(fmt.Sprintf("core.replica%d.connections", i),
				float64(sys.slotConns(i)))
		}
		if sl.replica != nil {
			ps := sl.replica.TCP().PoolStats()
			r.SetGauge(fmt.Sprintf("core.replica%d.pcb_hot", i), float64(ps.LiveHot))
			r.SetGauge(fmt.Sprintf("core.replica%d.pcb_full", i), float64(ps.LiveFull))
			r.SetGauge(fmt.Sprintf("core.replica%d.pcb_free", i),
				float64(ps.FreeConns))
		}
	}

	if sys.wd != nil {
		ws := sys.wd.Stats()
		r.SetCounter("watchdog.probes_sent", ws.ProbesSent)
		r.SetCounter("watchdog.acks_received", ws.AcksReceived)
		r.SetCounter("watchdog.probes_missed", ws.ProbesMissed)
		r.SetCounter("watchdog.crashes_detected", ws.CrashesDetected)
		r.SetCounter("watchdog.hangs_detected", ws.HangsDetected)
		r.SetCounter("watchdog.spurious_detected", ws.SpuriousDetected)
		r.Histogram("watchdog.detection_latency").Merge(sys.wd.DetectionLatency())
	}

	r.SetGauge("core.replicas_active", float64(sys.NumActive()))
	r.SetGauge("core.connections_live", float64(sys.TotalConns()))
	collectProcStats(r, "driver", sys.cfg.Driver.Proc())
	collectProcStats(r, "syscall", sys.sys.Proc())
	for _, sl := range sys.slots {
		if sl.replica == nil {
			continue
		}
		for _, p := range sl.replica.Procs() {
			collectProcStats(r, fmt.Sprintf("replica%d.%s", sl.index, p.Component), p)
		}
	}
	return r
}

// collectProcStats mirrors one process's dispatch statistics into the
// registry under the given prefix.
func collectProcStats(r *metrics.Registry, prefix string, p *sim.Proc) {
	st := p.Stats()
	r.SetCounter("proc."+prefix+".dispatches", st.Dispatches)
	r.SetCounter("proc."+prefix+".messages", st.Messages)
	r.SetCounter("proc."+prefix+".dropped", st.Dropped)
	r.SetCounter("proc."+prefix+".halts", st.Halts)
	r.SetCounter("proc."+prefix+".cycles", uint64(st.TotalCharged))
	r.SetCounter("proc."+prefix+".cycles_processing", uint64(st.CyclesByCat[sim.CostProcessing]))
	r.SetCounter("proc."+prefix+".cycles_polling", uint64(st.CyclesByCat[sim.CostPolling]))
	r.SetCounter("proc."+prefix+".cycles_kernel", uint64(st.CyclesByCat[sim.CostKernel]))
}

// Replicas returns the live replicas (active and terminating).
func (sys *System) Replicas() []*stack.Replica {
	var out []*stack.Replica
	for _, sl := range sys.slots {
		if sl.state == slotActive || sl.state == slotTerminating || sl.state == slotRecovering {
			out = append(out, sl.replica)
		}
	}
	return out
}

// NumActive returns the number of active (non-terminating) replicas.
func (sys *System) NumActive() int {
	n := 0
	for _, sl := range sys.slots {
		if sl.state == slotActive {
			n++
		}
	}
	return n
}

// SlotStates reports each slot's state (for tests and topology dumps).
func (sys *System) SlotStates() []SlotState {
	out := make([]SlotState, len(sys.slots))
	for i, sl := range sys.slots {
		out[i] = sl.state
	}
	return out
}

// TotalConns sums live PCBs across replicas.
func (sys *System) TotalConns() int {
	n := 0
	for _, r := range sys.Replicas() {
		n += r.TCP().NumConns()
	}
	return n
}

// activate builds a replica in an empty slot and wires it up.
func (sys *System) activate(sl *slot) {
	cfg := sys.cfg.Stack
	cfg.Name = fmt.Sprintf("neat%d", sl.index)
	// Partition the ephemeral port space across slots: replicas share the
	// host IP, so distinct ranges guarantee collision-free 4-tuples for
	// active opens — the port-space analogue of NEaT's state partitioning.
	span := (65536 - 32768) / len(sys.slots)
	cfg.TCP.EphemeralLo = uint16(32768 + sl.index*span)
	cfg.TCP.EphemeralHi = uint16(32768 + (sl.index+1)*span - 1)
	r := stack.NewReplica(sl.threads, sys.cfg.Driver.Proc(), cfg)
	sl.replica = r
	sl.state = slotActive
	sys.conns[r] = map[uint64]*tcpeng.Conn{}
	sys.installHooks(sl)
	sys.cfg.Driver.BindQueue(sl.index, r.EntryProc())
	sys.replayListens(r)
	sys.superviseReplica(sl)
	sys.eventf("spawn", "replica %d activated (%s)", sl.index, cfg.Name)
}

// superviseReplica puts every process of the slot's replica under watchdog
// supervision (no-op in paper-fidelity mode, where the crash oracle covers
// all processes for free).
func (sys *System) superviseReplica(sl *slot) {
	if sys.wd == nil || sl.replica == nil {
		return
	}
	for _, p := range sl.replica.Procs() {
		sys.wd.Watch(p)
	}
}

// installHooks wires connection-lifecycle hooks for NIC steering, crash
// bookkeeping and lazy termination.
func (sys *System) installHooks(sl *slot) {
	r := sl.replica
	r.OnCheckpoint = func(rr *stack.Replica, snap *tcpeng.Snapshot) {
		sys.stats.Checkpoints++
		sys.checkpoints[sl.index] = snap
	}
	r.OnRestored = func(rr *stack.Replica, n int) {
		sys.stats.ConnectionsRestored += uint64(n)
	}
	r.OnConnCreated = func(rr *stack.Replica, c *tcpeng.Conn) {
		// Steer the reply path to this replica before the SYN leaves.
		sys.conns[rr][c.ID] = c
		if sys.cfg.UseFlowFilters {
			if err := sys.cfg.NIC.InstallFilter(c.InboundFlow(), sl.index); err == nil {
				sys.stats.FiltersInstalled++
			}
		}
	}
	r.OnConnEstablished = func(rr *stack.Replica, c *tcpeng.Conn) {
		sys.conns[rr][c.ID] = c
		if sys.cfg.UseFlowFilters {
			if err := sys.cfg.NIC.InstallFilter(c.InboundFlow(), sl.index); err == nil {
				sys.stats.FiltersInstalled++
			}
		}
	}
	r.OnConnRemoved = func(rr *stack.Replica, c *tcpeng.Conn) {
		delete(sys.conns[rr], c.ID)
		if sys.cfg.UseFlowFilters {
			sys.cfg.NIC.RemoveFilter(c.InboundFlow())
			sys.stats.FiltersRemoved++
		}
		if sl.state == slotTerminating && rr.TCP().NumConns() == 0 {
			sys.collect(sl)
		}
	}
}

// sendProc injects msg into p through the management plane's ipc channel
// to that process, creating the channel on first use. Injection is
// immediate and cost-free (ipc.Conn.Inject), preserving the semantics of
// the direct Proc.Deliver writes it replaces while keeping every
// manager→component message on an accounted channel.
func (sys *System) sendProc(p *sim.Proc, msg sim.Message) {
	c, ok := sys.mgmtConns[p]
	if !ok {
		c = ipc.New(p, ipc.Costs{})
		sys.mgmtConns[p] = c
	}
	c.Inject(msg)
}

// notifyLost tells the application owning c, if any, that the connection
// is gone: a reset EvClosed carrying err.
func (sys *System) notifyLost(r *stack.Replica, c *tcpeng.Conn, err error) {
	if app, h := r.ConnOwner(c); app != nil {
		sys.sendProc(app, stack.NewEvClosed(sys.s, stack.EvClosed{Conn: h, Reset: true, Err: err}))
	}
}

// replayListens re-announces every registered listening socket to a new
// replica incarnation.
func (sys *System) replayListens(r *stack.Replica) {
	for _, op := range sys.listens {
		fanned := op
		// Acks land in the SYSCALL server, which ignores requests it
		// already acknowledged.
		fanned.ReplyTo = sys.sys.Proc()
		sys.sendProc(r.SockProc(), fanned)
	}
}

// ---- sysserver.Manager ----

// ConnectTarget implements sysserver.Manager by consulting the placement
// plane. The default HashPolicy picks a uniformly random active replica
// (§3.8: random placement gives load balancing and unpredictability),
// drawing from the simulator's seeded RNG so connect-side placement is
// reproducible under the byte-identity determinism oracles.
func (sys *System) ConnectTarget() *sim.Proc {
	idx := sys.placer.PickConnect()
	if idx < 0 {
		return nil
	}
	return sys.slots[idx].replica.SockProc()
}

// ListenTargets implements sysserver.Manager.
func (sys *System) ListenTargets() []*sim.Proc {
	var out []*sim.Proc
	for _, sl := range sys.slots {
		if sl.state == slotActive {
			out = append(out, sl.replica.SockProc())
		}
	}
	return out
}

// UDPTarget implements sysserver.Manager: the lowest-indexed slot the
// placement plane considers eligible for new flows.
func (sys *System) UDPTarget() *sim.Proc {
	active := sys.placer.Active()
	if len(active) == 0 {
		return nil
	}
	return sys.slots[active[0]].replica.EntryProc()
}

// RegisterListen implements sysserver.Manager.
func (sys *System) RegisterListen(op stack.OpListen) {
	sys.listens = append(sys.listens, op)
}

// UnregisterListen implements sysserver.Manager.
func (sys *System) UnregisterListen(reqID uint64) {
	for i, op := range sys.listens {
		if op.ReqID == reqID {
			sys.listens = append(sys.listens[:i], sys.listens[i+1:]...)
			return
		}
	}
}

// ---- scaling (§3.4) ----

// ScaleUp activates one empty slot and returns its replica. New
// connections immediately include it via the placement plane; existing
// connections are untouched because their exact filters pin them to
// their replicas.
func (sys *System) ScaleUp() (*stack.Replica, error) {
	for _, sl := range sys.slots {
		if sl.state == slotEmpty {
			sys.eventf("scale-up", "activating slot %d", sl.index)
			sys.activate(sl)
			sys.updatePlacement()
			sys.stats.ScaleUps++
			return sl.replica, nil
		}
	}
	return nil, ErrNoFreeSlot
}

// ScaleDown retires the replica the placement plane picks (the
// highest-indexed active one under the default policy; the least-loaded
// one under LeastLoadedPolicy): it stops receiving new connections
// (removed from the placer and from connect selection) but keeps its
// flow-director pins and serves existing connections until they drain,
// then is collected — the lazy termination strategy of §3.4.
func (sys *System) ScaleDown() error {
	idx := sys.placer.PickRetire()
	if idx < 0 {
		return errors.New("core: no active replica to terminate")
	}
	if sys.NumActive() == 1 {
		return errors.New("core: cannot scale below one replica")
	}
	sys.retire(sys.slots[idx])
	return nil
}

// retire transitions an active slot into the terminating (draining)
// state, collecting it at once when it holds no connection.
func (sys *System) retire(sl *slot) {
	sl.state = slotTerminating
	sys.stats.ScaleDowns++
	sys.eventf("scale-down", "slot %d terminating lazily (%d conns draining)",
		sl.index, sl.replica.TCP().NumConns())
	sys.updatePlacement()
	if sl.replica.TCP().NumConns() == 0 {
		sys.collect(sl)
	}
}

// collect garbage-collects a drained terminating replica.
func (sys *System) collect(sl *slot) {
	for _, p := range sl.replica.Procs() {
		if sys.wd != nil {
			sys.wd.Unwatch(p)
		} else {
			sys.expectedKills[p] = true
		}
	}
	sys.cfg.Driver.BindQueue(sl.index, nil)
	sl.replica.Kill()
	delete(sys.conns, sl.replica)
	sl.replica = nil
	sl.state = slotEmpty
	sys.stats.ReplicasGarbage++
	sys.eventf("collect", "slot %d drained and collected", sl.index)
}

// updatePlacement points the placement plane (and the NIC's RSS
// indirection view) at the active replicas only. With zero active
// replicas (all terminating, recovering or quarantined) the placer's
// empty set is the NIC's explicit drop-all state: unmatched flows are
// dropped in hardware instead of landing on a queue whose replica cannot
// accept them, while exact-match filters keep serving the established
// connections of terminating replicas.
func (sys *System) updatePlacement() {
	var queues []int
	for _, sl := range sys.slots {
		if sl.state == slotActive {
			queues = append(queues, sl.index)
		}
	}
	sys.placer.SetActive(queues)
	sys.cfg.NIC.SetRSSQueues(queues)
	sys.eventf("rss", "RSS rebind -> queues %v", queues)
}

// scheduleCheckpoints drives the periodic OpCheckpoint ticks.
func (sys *System) scheduleCheckpoints() {
	sys.s.After(sys.cfg.CheckpointInterval, func() {
		for _, sl := range sys.slots {
			if sl.state == slotActive || sl.state == slotTerminating {
				sys.sendProc(sl.replica.SockProc(), stack.OpCheckpoint{})
			}
		}
		sys.scheduleCheckpoints()
	})
}

// ---- recovery (§3.6) ----

// onCrash is the instantaneous failure detector of paper-fidelity mode:
// the microkernel notifies us of a dead process and we spawn a replacement
// after recoveryDelay. Watchdog mode replaces this oracle with heartbeat
// probing (watchdog.go), which additionally catches hangs.
func (sys *System) onCrash(p *sim.Proc, cause error) {
	if sys.expectedKills[p] {
		delete(sys.expectedKills, p)
		return
	}
	if p == sys.cfg.Driver.Proc() {
		sys.recoverDriver()
		return
	}
	if p == sys.sys.Proc() {
		sys.recoverSyscall()
		return
	}
	for _, sl := range sys.slots {
		if sl.replica == nil {
			continue
		}
		for _, rp := range sl.replica.Procs() {
			if rp == p {
				sys.recover(sl, p, recoveryDelay)
				return
			}
		}
	}
}

// watchdogFailure routes a watchdog detection to the right recovery path.
// The failed process may still be running (hung, or spuriously suspected
// on a lossy channel): either way the incarnation is no longer trusted and
// is killed before its replacement is spawned.
func (sys *System) watchdogFailure(p *sim.Proc) {
	sys.eventf("watchdog", "declared %s failed", p.Name)
	if !p.Dead() {
		p.Crash(ErrWatchdogKilled)
	}
	if p == sys.cfg.Driver.Proc() {
		sys.recoverDriver()
		return
	}
	if p == sys.sys.Proc() {
		sys.recoverSyscall()
		return
	}
	for _, sl := range sys.slots {
		if sl.replica == nil {
			continue
		}
		for _, rp := range sl.replica.Procs() {
			if rp == p {
				sys.escalate(sl, p)
				return
			}
		}
	}
}

// escalate drives the supervision ladder for a replica failure in watchdog
// mode: component restart on a first failure, whole-replica rebuild on a
// repeated failure within the sliding window, quarantine once the window
// fills up — with exponentially backed-off respawn delays throughout, so a
// crash storm converges to a fenced slot instead of a respawn busy-loop.
func (sys *System) escalate(sl *slot, dead *sim.Proc) {
	if sl.replica == nil || sl.state == slotQuarantined {
		return
	}
	if sl.state == slotRecovering {
		// A second component died while its sibling's respawn is pending:
		// merge into the in-flight recovery cycle.
		sys.recover(sl, dead, 0)
		return
	}
	delay := sys.backoffDelay(&sl.failTimes)
	n := len(sl.failTimes)
	if n >= wdMaxRestarts {
		sys.quarantine(sl)
		return
	}
	if n >= 2 && sl.replica.Kind() == stack.Multi {
		// Second strike: stop trusting the surviving component and rebuild
		// the whole replica from scratch.
		sys.stats.ReplicaRebuilds++
		sys.eventf("escalate", "slot %d strike %d: whole-replica rebuild", sl.index, n)
		for _, p := range sl.replica.Procs() {
			if !p.Dead() {
				sys.wd.Unwatch(p)
				p.Crash(ErrWatchdogKilled)
			}
		}
		dead = sl.replica.SockProc()
	}
	sys.recover(sl, dead, delay)
}

// recover accounts a dead component of a replica slot and schedules its
// rebuild after delay. The first crash of a recovery cycle opens the
// cycle; further crashes within the same cycle (e.g. the second component
// of a multi-component replica dying inside the recoveryDelay window)
// merge into it: their consequences are recorded — a TCP-component death
// reclassifies a provisionally transparent recovery as connection-losing —
// instead of being silently dropped. The driver stops passing packets to
// dead processes automatically until the replacement announces itself
// (§3.6).
func (sys *System) recover(sl *slot, dead *sim.Proc, delay sim.Time) {
	r := sl.replica
	first := sl.state != slotRecovering
	if first {
		sl.recPrev = sl.state
		sl.state = slotRecovering
		sl.recTCPLost = false
		sl.recStateful = false
		sl.recTransparent = false
		sl.recSnap = nil
		sys.stats.Recoveries++
		sys.eventf("recover", "slot %d: %s failed, respawn in %v", sl.index, dead.Name, delay)
	} else {
		sys.stats.SecondaryCrashes++
		sys.eventf("recover", "slot %d: %s failed, merged into in-flight recovery",
			sl.index, dead.Name)
	}

	tcpLost := r.Kind() == stack.Single || dead == r.SockProc()
	if tcpLost && !sl.recTCPLost {
		sl.recTCPLost = true
		if sl.recTransparent {
			// The earlier crash of this cycle looked transparent; the TCP
			// component dying within the same window reclassifies the whole
			// recovery as connection-losing.
			sys.stats.TransparentRecov--
			sl.recTransparent = false
		}
		snap := sys.checkpoints[sl.index]
		sl.recStateful = sys.cfg.CheckpointInterval > 0 && snap != nil
		sl.recSnap = snap
		sys.stats.TCPStateLost++
		if !sl.recStateful {
			// All connections of this replica are gone. Tell the owning
			// apps: their libraries observe the shared-memory channels
			// tearing down. (Stateful mode restores them from the last
			// checkpoint instead — do not declare them lost.)
			for _, c := range sys.conns[r] {
				sys.stats.ConnectionsLost++
				sys.notifyLost(r, c, stack.ErrReplicaFailure)
			}
		}
		sys.conns[r] = map[uint64]*tcpeng.Conn{}
	} else if !tcpLost && first {
		sl.recTransparent = true
		sys.stats.TransparentRecov++
	}

	if first {
		sys.s.After(delay, func() { sys.completeRecovery(sl) })
	}
}

// completeRecovery is the reincarnation step: respawn whatever died,
// splice the new processes into the replica's channels, re-announce the
// NIC queue, and replay or restore state as needed. It reads the slot's
// recovery flags (not closure captures) so crashes merged into the cycle
// after scheduling are honored.
func (sys *System) completeRecovery(sl *slot) {
	r := sl.replica
	if r == nil || sl.state != slotRecovering {
		return // quarantined (or collected) while the respawn was pending
	}
	if r.Kind() == stack.Single {
		r.Rebuild(sl.threads[0])
	} else {
		// Restart whichever components are dead (both, if the whole
		// replica was killed).
		if r.SockProc().Dead() {
			r.RestartTCP(sl.threads[1])
		}
		if r.EntryProc().Dead() {
			r.RestartIP(sl.threads[0])
		}
	}
	sys.installHooks(sl)
	sys.cfg.Driver.BindQueue(sl.index, r.EntryProc())
	if sl.recTCPLost && sl.recStateful {
		// The snapshot carries the listener table; only genuinely new
		// listens (registered after the snapshot) need replaying, and
		// replaying all is harmless (duplicates are rejected).
		sys.sendProc(r.SockProc(), stack.OpRestore{Snap: sl.recSnap})
		sys.replayListens(r)
	} else if sl.recTCPLost {
		sys.replayListens(r)
	}
	if sl.recPrev == slotTerminating {
		sl.state = slotTerminating
	} else {
		sl.state = slotActive
	}
	sl.recSnap = nil
	sys.updatePlacement()
	sys.superviseReplica(sl)
	sys.eventf("respawn", "slot %d back to %s", sl.index, sl.state)
}

// quarantine permanently fences a slot that keeps failing: processes
// killed, connections declared lost, NIC queue unbound, slot removed from
// RSS, and no further respawns attempted. The escalation terminus — a
// slot caught in a crash storm must not consume unbounded respawn work,
// and the remaining replicas keep serving.
func (sys *System) quarantine(sl *slot) {
	r := sl.replica
	if r == nil || sl.state == slotQuarantined {
		return
	}
	sl.state = slotQuarantined
	sys.stats.SlotsQuarantined++
	sys.eventf("quarantine", "slot %d fenced permanently", sl.index)
	for _, c := range sys.conns[r] {
		sys.stats.ConnectionsLost++
		sys.notifyLost(r, c, stack.ErrReplicaFailure)
	}
	delete(sys.conns, r)
	for _, p := range r.Procs() {
		if sys.wd != nil {
			sys.wd.Unwatch(p)
		}
		if !p.Dead() {
			if sys.wd == nil {
				sys.expectedKills[p] = true
			}
			p.Kill()
		}
	}
	sys.cfg.Driver.BindQueue(sl.index, nil)
	sl.replica = nil
	sys.updatePlacement()
}

// Quarantine administratively fences slot i (an ops action; the escalation
// ladder calls the same path).
func (sys *System) Quarantine(i int) error {
	if i < 0 || i >= len(sys.slots) {
		return fmt.Errorf("core: slot %d out of range", i)
	}
	sl := sys.slots[i]
	if sl.replica == nil {
		return fmt.Errorf("core: slot %d has no replica (%s)", i, sl.state)
	}
	sys.quarantine(sl)
	return nil
}

// recoverDriver respawns the NIC driver after a failure. The replacement
// keeps the driver endpoint (replica TX channels stay valid — the
// reincarnation-server contract for system services), but knows no queue
// bindings: the management plane re-announces every live replica and then
// kicks the device to drain whatever accumulated in the hardware queues
// while the driver was down. Frames delivered to the dead incarnation were
// lost; TCP retransmission covers for them.
func (sys *System) recoverDriver() {
	sys.stats.DriverRecoveries++
	delay := sys.backoffDelay(&sys.driverFails)
	sys.eventf("driver-recover", "NIC driver failed, respawn in %v", delay)
	sys.s.After(delay, func() {
		d := sys.cfg.Driver
		d.Restart()
		for _, sl := range sys.slots {
			if sl.replica != nil && sl.state != slotQuarantined && !sl.replica.EntryProc().Dead() {
				d.BindQueue(sl.index, sl.replica.EntryProc())
			}
		}
		d.Kick()
		if sys.wd != nil {
			sys.wd.Watch(d.Proc())
		}
	})
}

// recoverSyscall respawns the SYSCALL server. The listen table lives in
// the management plane and survives; applications keep their endpoint
// reference; only in-flight control-plane operations are lost.
func (sys *System) recoverSyscall() {
	sys.stats.SyscallRecoveries++
	delay := sys.backoffDelay(&sys.syscallFails)
	sys.eventf("syscall-recover", "SYSCALL server failed, respawn in %v", delay)
	sys.s.After(delay, func() {
		sys.sys.Restart()
		if sys.wd != nil {
			sys.wd.Watch(sys.sys.Proc())
		}
	})
}

// backoffDelay records a failure into the sliding window and returns the
// respawn delay: recoveryDelay doubled per recent failure, capped at
// wdBackoffMax — a respawn storm must not busy-loop the reincarnation path.
func (sys *System) backoffDelay(times *[]sim.Time) sim.Time {
	now := sys.s.Now()
	kept := (*times)[:0]
	for _, t := range *times {
		if t >= now-wdWindow {
			kept = append(kept, t)
		}
	}
	*times = append(kept, now)
	delay := recoveryDelay << (len(*times) - 1)
	if delay > wdBackoffMax || delay <= 0 {
		delay = wdBackoffMax
	}
	return delay
}
