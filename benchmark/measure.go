package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hostCost is the host-side price of one measured window: wall clock,
// allocation and GC deltas from runtime.MemStats, process CPU time from
// rusage and GC CPU time from runtime/metrics.
type hostCost struct {
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	cpu      time.Duration
	gcCPU    float64 // seconds
}

// hostMeter accumulates hostCost over one or more start/stop intervals, so
// a window can stop the clock around a forced GC in its middle.
type hostMeter struct {
	cost  hostCost
	t0    time.Time
	m0    runtime.MemStats
	cpu0  time.Duration
	gc0   float64
	gcCPU []metrics.Sample
	calib float64 // calibration just before the window
}

// newHostMeter takes the opening calibration.
func newHostMeter() *hostMeter {
	return &hostMeter{
		gcCPU: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}},
		calib: calibrate(),
	}
}

// done takes the closing calibration and returns the accumulated cost with
// the mean of the two calibrations (ns per step) around the window.
func (h *hostMeter) done() (hostCost, float64) {
	return h.cost, (h.calib + calibrate()) / 2
}

func (h *hostMeter) start() {
	runtime.ReadMemStats(&h.m0)
	h.cpu0 = processCPU()
	h.gc0 = h.readGCCPU()
	h.t0 = time.Now()
}

func (h *hostMeter) stop() {
	h.cost.wall += time.Since(h.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	h.cost.mallocs += m1.Mallocs - h.m0.Mallocs
	h.cost.bytes += m1.TotalAlloc - h.m0.TotalAlloc
	h.cost.gcCycles += m1.NumGC - h.m0.NumGC
	h.cost.cpu += processCPU() - h.cpu0
	h.cost.gcCPU += h.readGCCPU() - h.gc0
}

func (h *hostMeter) readGCCPU() float64 {
	metrics.Read(h.gcCPU)
	if h.gcCPU[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return h.gcCPU[0].Value.Float64()
}

// processCPU is user+system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable. It
// collects twice: sync.Pool contents (the packet buffer pools) survive one
// cycle in the pools' victim caches, and how full those are depends on when
// the last background cycle happened to run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

var calibSink uint64

// calibScan is the 256 KiB the calibration kernel scans: larger than L1,
// inside L2, pseudo-random so that the scan's branch does not predict.
var calibScan = func() []uint64 {
	a := make([]uint64, 32<<10)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = x
	}
	return a
}()

// calibrate times a fixed pure-Go kernel, about 6 ms, and returns ns per
// step. It runs nothing of the repository, so a change in its value is the
// host, not the code under test: every repetition is bracketed by two
// calibrations, and a run whose calibrations spread widely flags a noisy
// host (runtime.calib_ns, and the note the timed pass prints). No reported
// time is corrected by it.
//
// The kernel has two parts, because the shared hosts this runs on slow down
// in two ways: a dependent xorshift chain (1M steps, ≈ 2 ms) is
// latency-bound and follows the clock frequency; a branchy scan over
// calibScan (320 passes, ≈ 4 ms) is throughput- and cache-bound and follows
// contention from the core's hyperthread sibling and the shared cache.
func calibrate() float64 {
	const steps = 1_000_000
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var below uint64
	for pass := uint64(0); pass < 320; pass++ {
		limit := x + pass<<40
		for _, v := range calibScan {
			if v < limit {
				below++
			}
		}
	}
	d := time.Since(t0)
	calibSink += x + below
	return float64(d.Nanoseconds()) / steps
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), which is
// what the acceptance procedure in README.md uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
