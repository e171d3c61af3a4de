// Package metrics provides the measurement primitives of the experiment
// harness: latency histograms with percentile estimation, windowed rate
// counters, and CPU utilization sampling over the simulated machines —
// the moral equivalent of httperf's reports and the statistical profiler
// used for the paper's Table 2.
package metrics

import (
	"fmt"
	"math"

	"neat/internal/sim"
)

// Histogram is a log-bucketed latency histogram (nanoseconds). Buckets
// grow by ~2x from 1 µs to ~17 s, giving better than 2x resolution for
// percentiles, plus exact min/max/mean.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     float64
	min     sim.Time
	max     sim.Time
}

const numBuckets = 48

// bucketFor maps a duration to a bucket with half-power-of-two resolution.
func bucketFor(d sim.Time) int {
	if d < sim.Microsecond {
		return 0
	}
	us := float64(d) / float64(sim.Microsecond)
	b := int(2 * math.Log2(us))
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketUpper returns the representative upper value of bucket b.
func bucketUpper(b int) sim.Time {
	return sim.Time(float64(sim.Microsecond) * math.Pow(2, float64(b+1)/2))
}

// Observe records one sample.
func (h *Histogram) Observe(d sim.Time) {
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += float64(d)
	h.buckets[bucketFor(d)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean sample.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

// Max returns the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Quantile estimates the q-quantile. Out-of-range q values clamp to the
// exact extremes: q <= 0 returns Min and q >= 1 returns Max (both exact,
// not bucket estimates). An empty histogram returns 0 for any q. Bucket
// estimates are clamped into [Min, Max], so a single-sample or
// single-bucket histogram never reports a value outside its observed
// range.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b := 0; b < numBuckets; b++ {
		cum += h.buckets[b]
		if cum >= target {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// CPUSampler captures per-hardware-thread utilization over a window.
type CPUSampler struct {
	machine *sim.Machine
	start   sim.Time
	busy0   []sim.Time
}

// NewCPUSampler starts sampling machine utilization now.
func NewCPUSampler(m *sim.Machine) *CPUSampler {
	s := &CPUSampler{machine: m, start: m.Sim().Now()}
	for _, t := range m.Threads() {
		s.busy0 = append(s.busy0, t.BusyTotal())
	}
	return s
}

// Utilization returns per-thread utilization [0,1] since the sampler
// started, in core-major order.
func (s *CPUSampler) Utilization() []float64 {
	now := s.machine.Sim().Now()
	out := make([]float64, 0, len(s.busy0))
	for i, t := range s.machine.Threads() {
		out = append(out, sim.Utilization(s.busy0[i], t.BusyTotal(), s.start, now))
	}
	return out
}

// KRate converts a count over a simulated window to kilo-events/second
// (the paper reports krps); an empty window yields 0.
func KRate(count uint64, window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(count) / window.Seconds() / 1000
}
