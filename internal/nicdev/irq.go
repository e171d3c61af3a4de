package nicdev

import (
	"neat/internal/proto"
	"neat/internal/sim"
)

// Per-queue IRQ mode. The monolithic baseline (Linux model) has no
// dedicated driver process: each RX queue raises an interrupt on the core
// its IRQ affinity names, and that core's kernel context drains the queue
// in softirq context. NEaT never uses this mode — its queues all flow
// through the single driver process.

// QueueIRQ is the message a NIC in per-queue IRQ mode delivers to the
// bound kernel context when queue Q becomes non-empty.
type QueueIRQ struct{ Queue int }

// SetQueueIRQTarget routes queue q's interrupt to the given process and
// switches the NIC to per-queue IRQ mode for that queue. Pass nil to mask
// the queue.
func (n *NIC) SetQueueIRQTarget(q int, p *sim.Proc) {
	if n.irqTargets == nil {
		n.irqTargets = make([]*sim.Proc, len(n.queues))
		n.irqArmed = make([]bool, len(n.queues))
		n.irqMsgs = make([]sim.Message, len(n.queues))
		for i := range n.irqArmed {
			n.irqArmed[i] = true
			// Box each queue's interrupt message once; every delivery of
			// queue i reuses the same boxed value.
			n.irqMsgs[i] = QueueIRQ{Queue: i}
		}
	}
	n.irqTargets[q] = p
}

// DrainQueue removes and returns all frames pending on queue q (the
// kernel context reads the descriptor ring directly). The returned slice
// is only valid until the next DrainQueue of the same queue: the two
// backing slices rotate so steady-state draining never reallocates.
func (n *NIC) DrainQueue(q int) []*proto.Frame {
	qu := &n.queues[q]
	frames := qu.frames
	qu.frames = qu.spare[:0]
	qu.spare = frames[:0]
	n.drainRxStamps(q, len(frames))
	return frames
}

// RearmQueueIRQ re-enables queue q's interrupt after a drain, re-firing
// immediately if frames arrived meanwhile (NAPI semantics).
func (n *NIC) RearmQueueIRQ(q int) {
	if n.irqArmed == nil {
		return
	}
	n.irqArmed[q] = true
	if len(n.queues[q].frames) > 0 && n.irqTargets[q] != nil {
		n.irqArmed[q] = false
		n.irqTargets[q].Deliver(n.irqMsgs[q])
	}
}

// notifyQueue fires the per-queue interrupt if the mode is enabled;
// reports whether per-queue mode consumed the notification.
func (n *NIC) notifyQueue(q int) bool {
	if n.irqTargets == nil {
		return false
	}
	if n.irqTargets[q] != nil && n.irqArmed[q] {
		n.irqArmed[q] = false
		n.sim.DeliverAt(n.sim.Now()+n.PipelineLatency, n.irqTargets[q], n.irqMsgs[q])
	}
	return true
}
