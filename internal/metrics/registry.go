package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is the central instrument store of the observability layer:
// named counters, gauges and histograms, created on first use and
// enumerated in deterministic (sorted) order. One registry describes one
// measured system; experiment beds merge several (server plane, client
// plane, load generators) under distinct name prefixes.
//
// A Registry is not synchronized: like the simulator it describes, it is
// single-threaded. Parallel experiment sweeps give every sweep point its
// own registry, which is what keeps concurrent runs byte-identical to
// sequential ones.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter is a monotonically increasing named count.
type Counter struct{ v uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v += d }

// Set overwrites the counter (used by pull-style collection, where the
// registry mirrors live counters owned by the components themselves).
func (c *Counter) Set(v uint64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a named instantaneous value.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetCounter is shorthand for Counter(name).Set(v).
func (r *Registry) SetCounter(name string, v uint64) { r.Counter(name).Set(v) }

// SetGauge is shorthand for Gauge(name).Set(v).
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// CounterNames returns all counter names, sorted.
func (r *Registry) CounterNames() []string { return sortedKeysC(r.counters) }

// GaugeNames returns all gauge names, sorted.
func (r *Registry) GaugeNames() []string { return sortedKeysG(r.gauges) }

// HistogramNames returns all histogram names, sorted.
func (r *Registry) HistogramNames() []string { return sortedKeysH(r.hists) }

func sortedKeysC(m map[string]*Counter) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysG(m map[string]*Gauge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysH(m map[string]*Histogram) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Absorb copies every instrument of other into r under the given name
// prefix, summing counters and merging histograms that already exist.
// It is how an experiment bed assembles one registry out of the server
// system, the client system and the load generators.
func (r *Registry) Absorb(prefix string, other *Registry) {
	for _, name := range other.CounterNames() {
		r.Counter(prefix + name).Add(other.counters[name].Value())
	}
	for _, name := range other.GaugeNames() {
		r.Gauge(prefix + name).Set(other.gauges[name].Value())
	}
	for _, name := range other.HistogramNames() {
		r.Histogram(prefix + name).Merge(other.hists[name])
	}
}

// Filter returns a new registry holding only the instruments whose name
// starts with prefix (e.g. "watchdog." to isolate detector statistics).
// Instruments are copied: mutating the result does not touch r.
func (r *Registry) Filter(prefix string) *Registry {
	out := NewRegistry()
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			out.Counter(name).Set(c.Value())
		}
	}
	for name, g := range r.gauges {
		if strings.HasPrefix(name, prefix) {
			out.Gauge(name).Set(g.Value())
		}
	}
	for name, h := range r.hists {
		if strings.HasPrefix(name, prefix) {
			out.Histogram(name).Merge(h)
		}
	}
	return out
}

// String renders every instrument in sorted order, one per line — the
// deterministic dump format used by tests and the CLIs.
func (r *Registry) String() string {
	var b strings.Builder
	for _, name := range r.CounterNames() {
		fmt.Fprintf(&b, "%-44s %d\n", name, r.counters[name].Value())
	}
	for _, name := range r.GaugeNames() {
		fmt.Fprintf(&b, "%-44s %.3f\n", name, r.gauges[name].Value())
	}
	for _, name := range r.HistogramNames() {
		fmt.Fprintf(&b, "%-44s %s\n", name, r.hists[name].String())
	}
	return b.String()
}
