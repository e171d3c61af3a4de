package metrics

import (
	"strings"
	"testing"

	"neat/internal/sim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(5)
	if r.Counter("a.b") != c {
		t.Fatal("Counter did not return the existing instrument")
	}
	if got := r.Counter("a.b").Value(); got != 5 {
		t.Fatalf("counter=%d, want 5", got)
	}
	g := r.Gauge("u")
	g.Set(0.75)
	if r.Gauge("u").Value() != 0.75 {
		t.Fatal("gauge lost its value")
	}
	h := r.Histogram("lat")
	h.Observe(sim.Microsecond)
	if r.Histogram("lat").Count() != 1 {
		t.Fatal("histogram lost its sample")
	}
	// Distinct namespaces: the same name may exist in all three kinds.
	r.SetGauge("a.b", 1)
	if r.Counter("a.b").Value() != 5 {
		t.Fatal("gauge clobbered the same-named counter")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Counter(n)
		r.Gauge(n)
		r.Histogram(n)
	}
	want := []string{"alpha", "mid", "zeta"}
	for _, got := range [][]string{r.CounterNames(), r.GaugeNames(), r.HistogramNames()} {
		if len(got) != len(want) {
			t.Fatalf("names=%v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("names=%v, want %v", got, want)
			}
		}
	}
}

func TestRegistryAbsorb(t *testing.T) {
	a := NewRegistry()
	a.SetCounter("reqs", 10)
	a.Histogram("lat").Observe(sim.Microsecond)

	b := NewRegistry()
	b.SetCounter("reqs", 32)
	b.SetGauge("util", 0.5)
	b.Histogram("lat").Observe(sim.Millisecond)

	r := NewRegistry()
	r.SetCounter("srv.reqs", 100) // pre-existing: counters sum
	r.Absorb("srv.", a)
	r.Absorb("srv.", b)
	if got := r.Counter("srv.reqs").Value(); got != 142 {
		t.Fatalf("srv.reqs=%d, want 100+10+32", got)
	}
	if got := r.Gauge("srv.util").Value(); got != 0.5 {
		t.Fatalf("srv.util=%v", got)
	}
	h := r.Histogram("srv.lat")
	if h.Count() != 2 || h.min != sim.Microsecond || h.Max() != sim.Millisecond {
		t.Fatalf("srv.lat=%v", h)
	}
}

func TestRegistryStringDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.SetCounter("z.last", 3)
		r.SetCounter("a.first", 1)
		r.SetGauge("g", 2.5)
		r.Histogram("h").Observe(5 * sim.Microsecond)
		return r
	}
	s1, s2 := build().String(), build().String()
	if s1 != s2 {
		t.Fatalf("String not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	// Counters first (sorted), then gauges, then histograms.
	lines := strings.Split(strings.TrimRight(s1, "\n"), "\n")
	if len(lines) != 4 ||
		!strings.HasPrefix(lines[0], "a.first") ||
		!strings.HasPrefix(lines[1], "z.last") ||
		!strings.HasPrefix(lines[2], "g") ||
		!strings.HasPrefix(lines[3], "h") {
		t.Fatalf("unexpected dump:\n%s", s1)
	}
}
