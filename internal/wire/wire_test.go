package wire

import (
	"math/rand"
	"testing"

	"neat/internal/sim"
)

type capturePort struct {
	frames [][]byte
	times  []sim.Time
	s      *sim.Simulator
}

func (c *capturePort) Receive(frame []byte) {
	c.frames = append(c.frames, frame)
	c.times = append(c.times, c.s.Now())
}

func TestSerializationAndPropagation(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	l.BitsPerSec = 1_000_000_000 // 1 Gb/s: 1 byte = 8 ns
	l.PropDelay = 100
	dst := &capturePort{s: s}
	l.Attach(0, &capturePort{s: s})
	l.Attach(1, dst)

	frame := make([]byte, 1000)
	l.Transmit(0, frame)
	s.Drain()
	if len(dst.frames) != 1 {
		t.Fatalf("delivered %d frames", len(dst.frames))
	}
	// (1000 + 24 overhead) bytes * 8 ns + 100 ns propagation.
	want := sim.Time(1024*8 + 100)
	if dst.times[0] != want {
		t.Fatalf("arrival at %v, want %v", dst.times[0], want)
	}
}

func TestMinFramePadding(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	l.BitsPerSec = 1_000_000_000
	l.PropDelay = 0
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	l.Transmit(0, make([]byte, 10)) // padded to 64 + 24 overhead
	s.Drain()
	if want := sim.Time(88 * 8); dst.times[0] != want {
		t.Fatalf("arrival %v, want %v", dst.times[0], want)
	}
}

func TestFIFOAndBackToBack(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	l.BitsPerSec = 1_000_000_000
	l.PropDelay = 0
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	l.Transmit(0, []byte{1})
	l.Transmit(0, []byte{2}) // queued behind the first
	s.Drain()
	if len(dst.frames) != 2 || dst.frames[0][0] != 1 || dst.frames[1][0] != 2 {
		t.Fatalf("frames out of order: %v", dst.frames)
	}
	if dst.times[1] != 2*dst.times[0] {
		t.Fatalf("second frame not serialized after first: %v", dst.times)
	}
}

func TestFullDuplexIndependent(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	l.BitsPerSec = 1_000_000_000
	l.PropDelay = 0
	a := &capturePort{s: s}
	b := &capturePort{s: s}
	l.Attach(0, a)
	l.Attach(1, b)
	l.Transmit(0, make([]byte, 1000))
	l.Transmit(1, make([]byte, 1000))
	s.Drain()
	if len(a.frames) != 1 || len(b.frames) != 1 {
		t.Fatal("duplex delivery failed")
	}
	if a.times[0] != b.times[0] {
		t.Fatalf("directions interfered: %v vs %v", a.times[0], b.times[0])
	}
}

func TestDropFilter(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	dropped := 0
	l.DropFilter = func(dir int, frame []byte) bool {
		if frame[0] == 0xBA {
			dropped++
			return true
		}
		return false
	}
	l.Transmit(0, []byte{0xBA, 1})
	l.Transmit(0, []byte{0x00, 2})
	s.Drain()
	if dropped != 1 || len(dst.frames) != 1 || dst.frames[0][0] != 0 {
		t.Fatalf("drop filter misbehaved: dropped=%d delivered=%d", dropped, len(dst.frames))
	}
	if l.Stats().Dropped[0] != 1 || l.Stats().Delivered[0] != 1 {
		t.Fatalf("stats: %+v", l.Stats())
	}
}

func TestRandomLoss(t *testing.T) {
	s := sim.New(7)
	l := NewLink(s)
	l.LossProb = 0.5
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	for i := 0; i < 1000; i++ {
		l.Transmit(0, []byte{byte(i)})
	}
	s.Drain()
	got := len(dst.frames)
	if got < 350 || got > 650 {
		t.Fatalf("loss rate implausible: delivered %d of 1000", got)
	}
}

func TestDuplication(t *testing.T) {
	s := sim.New(3)
	l := NewLink(s)
	l.DupProb = 1.0
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	l.Transmit(0, []byte{9})
	s.Drain()
	if len(dst.frames) != 2 {
		t.Fatalf("want duplicate delivery, got %d", len(dst.frames))
	}
}

func TestUtilization(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	l.BitsPerSec = 1_000_000_000
	dst := &capturePort{s: s}
	l.Attach(1, dst)
	start := l.Stats().Bytes[0]
	since := s.Now()
	l.Transmit(0, make([]byte, 12500)) // 100,000 bits = 100µs at 1Gb/s
	s.RunFor(200 * sim.Microsecond)
	u := l.Utilization(0, start, since)
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestLookaheadValue(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s)
	// Minimum on-wire frame: 64 B padded + 24 B overhead = 88 B at 10 Gb/s
	// is 70.4 ns, truncated to 70 ns, plus the 1 µs propagation delay.
	if got, want := l.lookahead(), sim.Time(1070); got != want {
		t.Fatalf("lookahead() = %v, want %v", got, want)
	}
	// The bound never collapses to zero, even on an absurdly fast link.
	l.BitsPerSec = 1 << 62
	l.PropDelay = 0
	if got := l.lookahead(); got < sim.Nanosecond {
		t.Fatalf("lookahead() = %v, want >= 1ns", got)
	}
}

// TestLookaheadLowerBound pins the PDES safety property: every delivery the
// link ever schedules — tiny padded frames, frames queued behind a busy
// transmitter, even duplicates injected by the fault hook — arrives at
// least lookahead() after its Transmit call.
func TestLookaheadLowerBound(t *testing.T) {
	s := sim.New(7)
	l := NewLink(s)
	l.DupProb = 1 // every frame also delivers an (earlier-scheduled) duplicate
	dst := [2]*capturePort{{s: s}, {s: s}}
	l.Attach(0, dst[0])
	l.Attach(1, dst[1])
	la := l.lookahead()

	// Frames are tagged with their send index in byte 0 so arrivals can be
	// matched to their Transmit time. Bursty schedule: many sends land while
	// the transmitter is still serializing earlier frames.
	rng := rand.New(rand.NewSource(42))
	sendAt := make([]sim.Time, 120)
	at := sim.Time(0)
	for i := 0; i < len(sendAt); i++ {
		i := i
		side := rng.Intn(2)
		size := 1 + rng.Intn(1800) // includes sub-minimum frames (padded on the wire)
		at += sim.Time(rng.Intn(2000))
		s.At(at, func() {
			f := make([]byte, size)
			f[0] = byte(i)
			sendAt[i] = s.Now()
			l.Transmit(side, f)
		})
	}
	s.Drain()

	delivered := 0
	for r := 0; r < 2; r++ {
		for j, f := range dst[r].frames {
			delivered++
			idx := int(f[0])
			if arr := dst[r].times[j]; arr < sendAt[idx]+la {
				t.Fatalf("frame %d arrived at %v, sent at %v: below lookahead %v",
					idx, arr, sendAt[idx], la)
			}
		}
	}
	if want := 2 * len(sendAt); delivered != want {
		t.Fatalf("delivered %d frames, want %d (original + duplicate each)", delivered, want)
	}
}
