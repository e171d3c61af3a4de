// Package baseline implements the comparator of the paper's evaluation: a
// monolithic, shared-everything network stack in the style of Linux
// (§6.1). It runs the exact same protocol engines and socket glue as a
// single-component NEaT replica (stack.Engines) — the difference is purely
// architectural, which is the paper's point:
//
//   - ONE shared TCP/IP instance serves every core. K kernel contexts
//     (softirq/syscall execution, one per core) operate on the shared
//     state concurrently; the applications time-share the same cores.
//   - Sharing costs are modeled explicitly per operation: lock
//     acquisition whose cost grows with the number of contending contexts
//     (the non-scalable ticket-lock behaviour of [16]), cache-line
//     bouncing proportional to the number of other active cores, and a
//     locality penalty when a connection's RX queue, kernel context and
//     application do not sit on the same core.
//   - The NIC runs in per-queue IRQ mode: no dedicated driver core;
//     each queue interrupts the core its affinity names (Table 1's
//     irqAff/rxAff knobs).
//
// The Tuning knobs reproduce the configuration ladder of Table 1.
package baseline

import (
	"errors"
	"fmt"

	"neat/internal/ipc"
	"neat/internal/ipeng"
	"neat/internal/nicdev"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
)

// Tuning is the Table 1 configuration ladder.
type Tuning struct {
	// SchedDeadline switches the scheduler policy to deadline (slightly
	// cheaper wakeups).
	SchedDeadline bool
	// Ethtool turns auto-negotiation off and TSO on.
	Ethtool bool
	// IRQAffinity pins queue i's IRQ to core i (otherwise irqbalance
	// shuffles; modeled as a stable spread with worse locality).
	IRQAffinity bool
	// RxAffinity pins receive-queue processing explicitly.
	RxAffinity bool
	// ServerPinning pins lighttpd instance i to core i, aligning the
	// application with its connections' RX queues.
	ServerPinning bool
}

// localityFactor returns the kernel-cycle multiplier for the tuning level:
// how much extra cache-miss work every kernel operation pays because data
// structures follow processes across cores (§2.2). Calibrated against
// Table 1 (defaults 184.1 → full tuning 224.0 krps).
func (t Tuning) localityFactor() float64 {
	switch {
	case t.ServerPinning && t.IRQAffinity:
		return 1.0 // app, queue and kernel context aligned
	case t.IRQAffinity && t.RxAffinity:
		// Queues pinned but apps float: lighttpd is scheduled away from
		// the cores its connections arrive on (the rxAff dip of §6.1).
		return 1.30
	case t.IRQAffinity:
		return 1.29
	default:
		return 1.325
	}
}

// costs parameterizes the kernel cycle model. Values are cycles.
type costs struct {
	SoftirqPerPacket int64 // NAPI poll + ring handling per packet
	IPIn, IPOut      int64
	TCPSegIn         int64
	TCPSegOut        int64
	TCPConnSetup     int64
	SyscallOp        int64 // syscall entry/exit + copy per socket call
	SockEvent        int64 // data delivery to the app (copyout + wakeup)
	TimerOp          int64

	// LockBase is the uncontended lock/unlock cost charged per locked
	// operation; LockPerContender is added per additional active kernel
	// context; CacheBouncePerContender models false sharing and hot
	// cache-line migration per op per other context.
	LockBase                int64
	LockPerContender        int64
	CacheBouncePerContender int64
}

// defaultCosts returns the calibrated kernel cost model (see
// internal/experiments/calibrate.go for the derivations).
func defaultCosts() costs {
	return costs{
		SoftirqPerPacket: 1800,
		IPIn:             2600,
		IPOut:            2800,
		TCPSegIn:         11800,
		TCPSegOut:        10300,
		TCPConnSetup:     9000,
		SyscallOp:        3200,
		SockEvent:        2800,
		TimerOp:          500,

		LockBase:                1000,
		LockPerContender:        660,
		CacheBouncePerContender: 280,
	}
}

// Config assembles a baseline system.
type Config struct {
	// KernelThreads lists the hardware threads hosting the kernel
	// contexts (one per core in use). Applications are colocated on the
	// same threads by the caller.
	KernelThreads []*sim.HWThread
	NIC           *nicdev.NIC
	IP            ipeng.Config
	TCP           tcpeng.Config
	Tuning        Tuning
	IPC           ipc.Costs
}

// Stats aggregates baseline-wide counters.
type Stats struct {
	IRQs      uint64
	LockedOps uint64
}

// System is the monolithic stack: K kernel contexts around one shared
// engine set — NEaT's own socket glue and engines, charged with the kernel
// cost model below.
type System struct {
	cfg   Config
	procs []*sim.Proc
	eng   *stack.Engines
	lock  int64 // cycles of one locked operation on shared state
	stats Stats
}

// New boots a baseline system.
func New(cfg Config) (*System, error) {
	if len(cfg.KernelThreads) == 0 {
		return nil, errors.New("baseline: need at least one kernel context")
	}
	if cfg.NIC == nil {
		return nil, errors.New("baseline: NIC required")
	}
	if cfg.NIC.NumQueues() < len(cfg.KernelThreads) {
		return nil, fmt.Errorf("baseline: %d kernel contexts but NIC has %d queues",
			len(cfg.KernelThreads), cfg.NIC.NumQueues())
	}
	cfg.TCP.TSO = cfg.TCP.TSO || cfg.Tuning.Ethtool

	// Every kernel operation pays the tuning's locality factor; each
	// operation on shared state also takes a lock whose contention and
	// cache-line bouncing grow with the number of kernel contexts.
	c := defaultCosts()
	f := cfg.Tuning.localityFactor()
	scale := func(cycles int64) int64 { return int64(float64(cycles) * f) }
	k := int64(len(cfg.KernelThreads))
	s := &System{cfg: cfg,
		lock: c.LockBase + (c.LockPerContender+c.CacheBouncePerContender)*(k-1)}
	s.eng = stack.NewEngines(cfg.KernelThreads[0].Machine().Sim(), stack.Config{
		IP: cfg.IP, TCP: cfg.TCP, IPC: cfg.IPC,
		Costs: stack.Costs{
			FilterCheck:  scale(c.SoftirqPerPacket),
			IPIn:         scale(c.IPIn),
			IPOut:        scale(c.IPOut),
			TCPSegIn:     scale(c.TCPSegIn),
			TCPSegOut:    scale(c.TCPSegOut),
			TCPConnSetup: scale(c.TCPConnSetup),
			UDPIn:        scale(c.IPIn),
			UDPOut:       scale(c.SyscallOp),
			SockOp:       scale(c.SyscallOp),
			SockEvent:    scale(c.SockEvent),
			TimerOp:      scale(c.TimerOp),
		},
	}, scale(c.TCPConnSetup+c.SyscallOp), s.lock, nicEgress{s})

	for i, th := range cfg.KernelThreads {
		pc := sim.ProcConfig{Component: "kernel",
			WakeCycles: 2600, HaltCycles: 1600, DispatchCycles: 150}
		if cfg.Tuning.SchedDeadline {
			pc.WakeCycles, pc.HaltCycles = 2200, 1400
		}
		p := sim.NewProc(th, fmt.Sprintf("kernel%d", i), kernelHandler{s.eng, s}, pc)
		s.procs = append(s.procs, p)
	}

	// IRQ routing per tuning: with affinity queue i → core i; otherwise
	// irqbalance's stable-but-arbitrary spread (rotated by one, denying
	// queue/app alignment).
	for q := 0; q < cfg.NIC.NumQueues(); q++ {
		idx := q % len(s.procs)
		if !cfg.Tuning.IRQAffinity {
			idx = (q + 1) % len(s.procs)
		}
		cfg.NIC.SetQueueIRQTarget(q, s.procs[idx])
	}
	return s, nil
}

// kernelHandler runs one kernel context: the shared engine set behind the
// per-queue IRQ front end (softirq RX processing).
type kernelHandler struct {
	*stack.Engines
	s *System
}

// HandleMessage implements sim.Handler.
func (kh kernelHandler) HandleMessage(ctx *sim.Context, msg sim.Message) {
	irq, ok := msg.(nicdev.QueueIRQ)
	if !ok {
		kh.Engines.HandleMessage(ctx, msg)
		return
	}
	s := kh.s
	s.stats.IRQs++
	frames := s.cfg.NIC.DrainQueue(irq.Queue)
	for i, f := range frames {
		frames[i] = nil
		kh.Input(ctx, f)
	}
	s.cfg.NIC.RearmQueueIRQ(irq.Queue)
}

// nicEgress transmits straight to the NIC: the kernel owns the driver.
type nicEgress struct{ s *System }

func (e nicEgress) Transmit(ctx *sim.Context, raw []byte) {
	e.s.cfg.NIC.Transmit(raw)
}

func (e nicEgress) TransmitTSO(ctx *sim.Context, t nicdev.TxTSO) {
	e.s.cfg.NIC.SendTSO(t)
}

// KernelProc returns kernel context i — the syscall target for the
// application pinned to core i.
func (s *System) KernelProc(i int) *sim.Proc { return s.procs[i] }

// NumContexts returns the number of kernel contexts.
func (s *System) NumContexts() int { return len(s.procs) }

// TCP exposes the shared TCP engine.
func (s *System) TCP() *tcpeng.Engine { return s.eng.TCP() }

// Stats returns baseline counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.LockedOps = s.eng.LockedOps()
	return st
}
