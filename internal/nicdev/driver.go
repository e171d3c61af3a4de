package nicdev

import (
	"neat/internal/sim"
)

// rxReady is the NIC's RX notification to the driver.
type rxReady struct{}

// DriverCosts parameterizes the driver's per-operation cycle budget.
// Defaults are calibrated in internal/experiments/calibrate.go against the
// paper's Table 2 (a single core drives 10G line rate, and a mostly idle
// driver spends most of its active time polling and in the kernel).
type DriverCosts struct {
	PerPacketRx int64 // cycles to fetch + dispatch one RX frame
	PerPacketTx int64 // cycles to post one TX frame
	PollQueue   int64 // cycles to check one (possibly empty) queue
}

// DefaultDriverCosts returns reasonable defaults for a 10G driver,
// calibrated against Table 2: at a few hundred krps of web traffic the
// driver core approaches saturation, while §3.5's observation holds that
// it never becomes the bottleneck in the measured configurations.
func DefaultDriverCosts() DriverCosts {
	return DriverCosts{PerPacketRx: 1400, PerPacketTx: 1100, PollQueue: 600}
}

// DriverStats counts driver activity.
type DriverStats struct {
	RxDispatched uint64
	RxUnbound    uint64 // frames for queues with no live target (recovering replica)
	TxSent       uint64
	Polls        uint64
}

// Driver is the NIC driver process: it drains RX queues, dispatching each
// frame to the replica bound to the frame's queue, and forwards TX requests
// from replicas to the NIC. Per §3.6, a queue whose replica crashed is
// simply unbound: the driver holds packets back (drops them) until the new
// replica announces itself, so the device never needs reconfiguration
// during recovery.
type Driver struct {
	proc    *sim.Proc
	nic     *NIC
	costs   DriverCosts
	targets []*sim.Proc
	stats   DriverStats
}

// NewDriver creates the driver process on the given hardware thread.
func NewDriver(t *sim.HWThread, name string, nic *NIC, costs DriverCosts) *Driver {
	nic.bindDomain(t.Machine().Sim())
	d := &Driver{nic: nic, costs: costs, targets: make([]*sim.Proc, nic.NumQueues())}
	d.proc = sim.NewProc(t, name, d, sim.ProcConfig{
		Component:      "driver",
		WakeCycles:     1400, // enter/exit kernel to halt: MWAIT is privileged
		HaltCycles:     900,
		DispatchCycles: 60,
	})
	nic.driver = d
	return d
}

// Proc returns the driver's process (replicas send TxFrame/TxTSO to it).
func (d *Driver) Proc() *sim.Proc { return d.proc }

// NIC returns the device the driver manages.
func (d *Driver) NIC() *NIC { return d.nic }

// Stats returns a snapshot of driver counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// BindQueue announces proc as the live replica for queue q. A nil proc
// unbinds the queue (replica crashed or terminating).
func (d *Driver) BindQueue(q int, proc *sim.Proc) { d.targets[q] = proc }

// Restart revives a dead driver process in place (the reincarnation-server
// contract: system services keep their IPC endpoint across incarnations,
// so replicas' TX channels stay valid). The fresh incarnation knows no
// queue bindings — the management plane must re-announce every replica and
// then Kick the device. Frames that reached the dead process were lost;
// frames sitting in the NIC's hardware queues survive.
func (d *Driver) Restart() {
	d.proc.Respawn()
	for i := range d.targets {
		d.targets[i] = nil
	}
}

// Kick re-arms the NIC's RX notification after a driver restart, re-firing
// the interrupt if frames accumulated in the hardware queues while the
// driver was down. Call it after the queue bindings are re-announced.
func (d *Driver) Kick() { d.nic.rearm() }

// HandleMessage implements sim.Handler.
func (d *Driver) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case rxReady:
		d.drainRx(ctx)
	case *TxFrame:
		ctx.Charge(d.costs.PerPacketTx)
		d.stats.TxSent++
		d.nic.Transmit(m.Raw)
		pool := m.pool
		*m = TxFrame{}
		pool.Put(m)
	case TxFrame:
		ctx.Charge(d.costs.PerPacketTx)
		d.stats.TxSent++
		d.nic.Transmit(m.Raw)
	case *TxTSO:
		// One descriptor regardless of payload size: that is the point of
		// TSO — the CPU cost does not scale with the number of segments.
		ctx.Charge(d.costs.PerPacketTx + 150)
		d.stats.TxSent++
		d.nic.SendTSO(*m)
		pool := m.pool
		*m = TxTSO{}
		pool.Put(m)
	case TxTSO:
		ctx.Charge(d.costs.PerPacketTx + 150)
		d.stats.TxSent++
		d.nic.SendTSO(m)
	}
}

// drainRx polls every RX queue and dispatches all pending frames.
func (d *Driver) drainRx(ctx *sim.Context) {
	nq := d.nic.NumQueues()
	// The driver checks every NIC queue AND every stack's TX ring each
	// activation whether or not it has work — the "polling the 3 stacks
	// and the NIC queues" share of Table 2.
	ctx.ChargeAs(sim.CostPolling, d.costs.PollQueue*int64(2*nq))
	d.stats.Polls += uint64(2 * nq)
	for q := 0; q < nq; q++ {
		qu := &d.nic.queues[q]
		if len(qu.frames) == 0 {
			continue
		}
		// Rotate the queue's two slices: new arrivals append to the spare
		// while this batch is processed, so nothing reallocates.
		frames := qu.frames
		qu.frames = qu.spare[:0]
		d.nic.drainRxStamps(q, len(frames))
		target := d.targets[q]
		for i, f := range frames {
			frames[i] = nil
			if target == nil || target.Dead() {
				d.stats.RxUnbound++
				f.Release()
				continue
			}
			ctx.Charge(d.costs.PerPacketRx)
			d.stats.RxDispatched++
			ctx.Send(target, f)
		}
		qu.spare = frames[:0]
	}
	d.nic.rearm()
}
