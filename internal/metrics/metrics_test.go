package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neat/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.min != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Fatalf("min=%v max=%v", h.min, h.Max())
	}
	mean := h.Mean()
	if mean < 45*sim.Microsecond || mean > 56*sim.Microsecond {
		t.Fatalf("mean=%v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 30*sim.Microsecond || p50 > 80*sim.Microsecond {
		t.Fatalf("p50=%v", p50)
	}
	if h.Quantile(1.0) != h.Max() && h.Quantile(1.0) > h.Max() {
		t.Fatalf("p100=%v > max=%v", h.Quantile(1.0), h.Max())
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Observe(sim.Time(rng.Intn(1_000_000_000) + 1))
		}
		last := sim.Time(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return h.Quantile(1.0) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileResolution(t *testing.T) {
	// Samples at a single value: every quantile lands within one bucket
	// (≈√2 resolution) of it.
	var h Histogram
	v := 3 * sim.Millisecond
	for i := 0; i < 1000; i++ {
		h.Observe(v)
	}
	got := h.Quantile(0.5)
	if got < v/2 || got > v*2 {
		t.Fatalf("p50=%v for constant %v", got, v)
	}
}

func TestRates(t *testing.T) {
	if r := KRate(500_000, sim.Second); r != 500 {
		t.Fatalf("krate=%v", r)
	}
	if KRate(5, 0) != 0 {
		t.Fatal("zero window")
	}
}

func TestCPUSampler(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 1_000_000_000)
	busy := sim.NewProc(m.Thread(0, 0), "busy", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		ctx.Charge(1000)
		ctx.TimerAfter(1000, "again") // 50% duty cycle
	}), sim.ProcConfig{})
	sampler := NewCPUSampler(m)
	busy.Deliver("go")
	s.RunFor(sim.Millisecond)
	u := sampler.Utilization()
	if len(u) != 2 {
		t.Fatalf("threads=%d", len(u))
	}
	if u[0] < 0.4 || u[0] > 0.6 {
		t.Fatalf("busy thread utilization=%v", u[0])
	}
	if u[1] != 0 {
		t.Fatalf("idle thread utilization=%v", u[1])
	}
}

func TestBucketMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		d1, d2 := sim.Time(a), sim.Time(b)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return bucketFor(d1) <= bucketFor(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
			if got := h.Quantile(q); got != 0 {
				t.Fatalf("empty histogram Quantile(%v)=%v, want 0", q, got)
			}
		}
	})
	t.Run("q0-and-q1-are-exact", func(t *testing.T) {
		var h Histogram
		for _, v := range []sim.Time{7 * sim.Microsecond, 3 * sim.Millisecond, 250 * sim.Microsecond} {
			h.Observe(v)
		}
		if got := h.Quantile(0); got != 7*sim.Microsecond {
			t.Fatalf("Quantile(0)=%v, want exact min %v", got, 7*sim.Microsecond)
		}
		if got := h.Quantile(-0.5); got != h.min {
			t.Fatalf("Quantile(-0.5)=%v, want min", got)
		}
		if got := h.Quantile(1); got != 3*sim.Millisecond {
			t.Fatalf("Quantile(1)=%v, want exact max %v", got, 3*sim.Millisecond)
		}
		if got := h.Quantile(1.5); got != h.Max() {
			t.Fatalf("Quantile(1.5)=%v, want max", got)
		}
	})
	t.Run("single-sample-stays-in-range", func(t *testing.T) {
		var h Histogram
		h.Observe(5 * sim.Microsecond)
		for _, q := range []float64{0.01, 0.5, 0.99} {
			got := h.Quantile(q)
			if got != 5*sim.Microsecond {
				t.Fatalf("Quantile(%v)=%v, want the only sample %v", q, got, 5*sim.Microsecond)
			}
		}
	})
	t.Run("single-bucket-clamps-to-observed", func(t *testing.T) {
		// All samples in one bucket but not equal: estimates must stay
		// inside [min, max], not report the bucket's upper bound.
		var h Histogram
		h.Observe(1000 * sim.Microsecond)
		h.Observe(1100 * sim.Microsecond)
		h.Observe(1300 * sim.Microsecond)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			got := h.Quantile(q)
			if got < h.min || got > h.Max() {
				t.Fatalf("Quantile(%v)=%v outside [%v, %v]", q, got, h.min, h.Max())
			}
		}
	})
	t.Run("sub-microsecond", func(t *testing.T) {
		var h Histogram
		h.Observe(10)
		h.Observe(20)
		for _, q := range []float64{0.5, 0.99} {
			if got := h.Quantile(q); got < 10 || got > 20 {
				t.Fatalf("Quantile(%v)=%v outside observed [10ns, 20ns]", q, got)
			}
		}
	})
}

func TestHistogramMergeAssociative(t *testing.T) {
	// Merge must be associative and the identity must hold: (a∪b)∪c equals
	// a∪(b∪c) equals observing everything into one histogram, and merging
	// an empty histogram changes nothing.
	cases := []struct {
		name    string
		a, b, c []sim.Time
	}{
		{"all-empty", nil, nil, nil},
		{"left-empty", nil, []sim.Time{sim.Microsecond}, []sim.Time{sim.Millisecond}},
		{"middle-empty", []sim.Time{5 * sim.Microsecond}, nil, []sim.Time{9 * sim.Second}},
		{"disjoint-ranges", []sim.Time{1, 2, 3}, []sim.Time{sim.Millisecond}, []sim.Time{sim.Second, 2 * sim.Second}},
		{"overlapping", []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond},
			[]sim.Time{15 * sim.Microsecond}, []sim.Time{12 * sim.Microsecond, 18 * sim.Microsecond}},
		{"identical", []sim.Time{sim.Millisecond}, []sim.Time{sim.Millisecond}, []sim.Time{sim.Millisecond}},
	}
	fill := func(vs []sim.Time) *Histogram {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		return &h
	}
	same := func(x, y *Histogram) bool {
		return x.Count() == y.Count() && x.min == y.min && x.Max() == y.Max() &&
			x.Mean() == y.Mean() && x.Quantile(0.5) == y.Quantile(0.5) &&
			x.Quantile(0.99) == y.Quantile(0.99)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			left := fill(tc.a) // (a ∪ b) ∪ c
			left.Merge(fill(tc.b))
			left.Merge(fill(tc.c))
			bc := fill(tc.b) // a ∪ (b ∪ c)
			bc.Merge(fill(tc.c))
			right := fill(tc.a)
			right.Merge(bc)
			all := fill(append(append(append([]sim.Time(nil), tc.a...), tc.b...), tc.c...))
			if !same(left, right) {
				t.Fatalf("(a∪b)∪c = %v, a∪(b∪c) = %v", left, right)
			}
			if !same(left, all) {
				t.Fatalf("merged = %v, direct = %v", left, all)
			}
			id := fill(tc.a)
			id.Merge(&Histogram{})
			if !same(id, fill(tc.a)) {
				t.Fatalf("merging empty changed %v", id)
			}
		})
	}
}

func TestHistogramMergeProperty(t *testing.T) {
	// Property: merging two histograms preserves count, sum-of-means, min
	// and max.
	f := func(xs, ys []uint32) bool {
		var a, b, all Histogram
		for _, x := range xs {
			a.Observe(sim.Time(x) + 1)
			all.Observe(sim.Time(x) + 1)
		}
		for _, y := range ys {
			b.Observe(sim.Time(y) + 1)
			all.Observe(sim.Time(y) + 1)
		}
		a.Merge(&b)
		if a.Count() != all.Count() {
			return false
		}
		if a.Count() == 0 {
			return true
		}
		return a.min == all.min && a.Max() == all.Max() && a.Mean() == all.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
