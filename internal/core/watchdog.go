// Watchdog: heartbeat-based failure detection for the whole NEaT plane.
//
// Paper-fidelity mode relies on the microkernel's instantaneous crash
// notification (sim.OnCrash) — a perfect oracle that cannot see a hung
// process, because a livelocked component is alive as far as the kernel is
// concerned while draining no work. The watchdog replaces the oracle with
// an imperfect detector of the kind a real reincarnation server must use:
// it pings every supervised process on a fixed interval and declares a
// process failed after K consecutive unanswered probes.
//
// Heartbeats are answered by the dispatch loop itself, never by the
// component's handler (sim.HeartbeatPing), so an ack certifies exactly
// "this process is draining its inbox". Crashes (deliveries dropped),
// hangs (deliveries queued but never dispatched) and sufficiently lossy
// message channels all look identical to the prober: missed acks. The
// third case makes the detector imperfect — a spurious detection kills and
// respawns a healthy process, which is safe (state loss is the same as a
// crash) but wasted work, the classic trade-off of timeout-based failure
// detectors.
//
// Detection latency is bounded: a process that fails at time t is declared
// dead no later than t + (wdMisses+1)·wdInterval + one probe round-trip — the
// first probe after the failure may lag it by up to a full interval, and
// wdMisses further intervals must elapse before the threshold is crossed.
package core

import (
	"errors"

	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/sim"
)

// ErrWatchdogKilled is the crash cause recorded when the watchdog kills a
// process it declared failed (hung, or spuriously suspected) before
// respawning it.
var ErrWatchdogKilled = errors.New("core: killed by watchdog after missed heartbeats")

// Detector and escalation parameters.
const (
	// wdInterval is the time between probe rounds.
	wdInterval = 100 * sim.Microsecond
	// wdMisses is K: a process is declared failed after K consecutive
	// unanswered probes.
	wdMisses = 3
	// wdMaxRestarts is M: the M-th failure of one slot within wdWindow
	// quarantines the slot instead of respawning again.
	wdMaxRestarts = 5
	// wdWindow is the sliding failure window for escalation and backoff.
	wdWindow = 50 * sim.Millisecond
	// wdBackoffMax caps the exponential respawn backoff.
	wdBackoffMax = 8 * sim.Millisecond
)

// WatchdogStats counts detector activity.
type WatchdogStats struct {
	ProbesSent       uint64
	AcksReceived     uint64
	ProbesMissed     uint64
	CrashesDetected  uint64 // declared processes that were dead
	HangsDetected    uint64 // declared processes that were hung (alive, not draining)
	SpuriousDetected uint64 // declared processes that were healthy (lossy channel)
}

// Watchdog is the prober process. It runs on the SYSCALL thread (the
// management-plane core): a distinct process, so a hung SYSCALL server
// does not take the detector down with it. The watchdog itself is the root
// of the supervision tree and is assumed reliable, as the reincarnation
// server is in MINIX-lineage systems.
type Watchdog struct {
	sys  *System
	proc *sim.Proc

	seq uint64
	// targets is the ordered supervised set. Each probe carries its
	// target's entry as the heartbeat's Tag, so an ack needs no lookup.
	targets []*watchEntry
	timer   sim.Timer

	stats  WatchdogStats
	detect metrics.Histogram // failure-onset → declaration latency
}

type watchEntry struct {
	p        *sim.Proc
	watched  bool   // cleared by Unwatch; late acks to the entry are ignored
	awaiting bool   // a probe is outstanding
	missed   int    // consecutive unanswered probes
	lastSeq  uint64 // seq of the outstanding probe; stale acks are ignored
	// conn is the probe channel to the target. Probe cost is charged
	// explicitly (wdProbeCycles), so the channel itself carries zero
	// Costs: the watchdog's wake path is the kernel's, not a data channel.
	conn *ipc.Conn
}

// wdTick drives one probe round.
type wdTick struct{}

// Per-operation cycle costs of the prober (small: the watchdog must stay
// negligible next to the data plane).
const (
	wdTickCycles  = 200
	wdProbeCycles = 120
	wdAckCycles   = 60
)

func newWatchdog(sys *System) *Watchdog {
	w := &Watchdog{sys: sys}
	w.proc = sim.NewProc(sys.sys.Proc().Thread(), "watchdog", w, sim.ProcConfig{
		Component: "watchdog", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 80,
	})
	sys.s.DeliverAt(sys.s.Now()+wdInterval, w.proc, wdTick{})
	return w
}

// Stats returns a snapshot of the detector counters.
func (w *Watchdog) Stats() WatchdogStats { return w.stats }

// DetectionLatency returns the failure-onset → declaration latency
// distribution across all detections.
func (w *Watchdog) DetectionLatency() *metrics.Histogram { return &w.detect }

// Watch adds p to the supervised set (idempotent).
func (w *Watchdog) Watch(p *sim.Proc) {
	if p == nil || w.find(p) >= 0 {
		return
	}
	w.targets = append(w.targets, &watchEntry{p: p, watched: true, conn: ipc.New(p, ipc.Costs{})})
}

// Unwatch removes p from the supervised set (no-op if absent).
func (w *Watchdog) Unwatch(p *sim.Proc) {
	if i := w.find(p); i >= 0 {
		w.targets[i].watched = false
		w.targets = append(w.targets[:i], w.targets[i+1:]...)
	}
}

// find returns p's index in the supervised set, or -1.
func (w *Watchdog) find(p *sim.Proc) int {
	for i, e := range w.targets {
		if e.p == p {
			return i
		}
	}
	return -1
}

// HandleMessage implements sim.Handler.
func (w *Watchdog) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case wdTick:
		w.tick(ctx)
		ctx.Retimer(&w.timer, wdInterval, wdTick{})
	case *sim.HeartbeatPing:
		ctx.Charge(wdAckCycles)
		if e := m.Tag.(*watchEntry); e.watched && m.Seq == e.lastSeq {
			e.awaiting = false
			e.missed = 0
			w.stats.AcksReceived++
		}
		m.Recycle()
	}
}

// tick runs one probe round: count probes that went unanswered since the
// previous round, declare processes that crossed the miss threshold, and
// ping the rest.
func (w *Watchdog) tick(ctx *sim.Context) {
	ctx.Charge(wdTickCycles)
	var failed []*sim.Proc
	for _, e := range w.targets {
		if e.awaiting {
			e.missed++
			w.stats.ProbesMissed++
			if e.missed >= wdMisses {
				// Declared after the loop: declaration mutates the target
				// set (unwatch, escalation kills).
				failed = append(failed, e.p)
				continue
			}
		}
		w.seq++
		e.lastSeq = w.seq
		e.awaiting = true
		w.stats.ProbesSent++
		ctx.Charge(wdProbeCycles)
		e.conn.Send(ctx, ctx.NewHeartbeat(w.seq, e))
	}
	for _, p := range failed {
		w.declare(p)
	}
}

// declare classifies and reports a failed process, then hands it to the
// management plane for recovery.
func (w *Watchdog) declare(p *sim.Proc) {
	switch {
	case p.Hung():
		w.stats.HangsDetected++
	case p.Dead():
		w.stats.CrashesDetected++
	default:
		w.stats.SpuriousDetected++
	}
	if p.Dead() || p.Hung() {
		w.detect.Observe(w.sys.s.Now() - p.FailedAt())
	}
	w.Unwatch(p)
	w.sys.watchdogFailure(p)
}
