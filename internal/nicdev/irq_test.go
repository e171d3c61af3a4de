package nicdev

import (
	"testing"

	"neat/internal/sim"
	"neat/internal/wire"
)

// softirqSink models the baseline's kernel context: it drains the queue on
// each QueueIRQ and re-arms, counting frames seen.
type softirqSink struct {
	nic  *NIC
	got  int
	irqs int
}

func (s *softirqSink) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if irq, ok := msg.(QueueIRQ); ok {
		s.irqs++
		for _, f := range s.nic.DrainQueue(irq.Queue) {
			s.got++
			f.Release()
		}
		s.nic.RearmQueueIRQ(irq.Queue)
	}
}

// TestQueueIRQOnePerFrame pushes frames 1µs apart into a single-queue NIC
// in per-queue IRQ mode. The spacing far exceeds the drain time, so every
// frame raises its own interrupt and the kernel context consumes them all.
func TestQueueIRQOnePerFrame(t *testing.T) {
	const n = 8
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 1, 1, 1_000_000_000)
	l := wire.NewLink(s)
	nic := NewNIC(s, "nic0", macB, l, 1, 1)
	sink := &softirqSink{nic: nic}
	p := sim.NewProc(m.Thread(0, 0), "ksoftirqd", sink, sim.ProcConfig{})
	nic.SetQueueIRQTarget(0, p)
	for i := 0; i < n; i++ {
		port := uint16(5000 + i)
		at := sim.Time(i) * sim.Microsecond
		s.At(at, func() { nic.Receive(tcpFrame(port, nil)) })
	}
	s.Drain()
	if sink.got != n {
		t.Fatalf("delivered %d of %d frames", sink.got, n)
	}
	if sink.irqs != n {
		t.Fatalf("took %d interrupts for %d frames, want %d", sink.irqs, n, n)
	}
}
