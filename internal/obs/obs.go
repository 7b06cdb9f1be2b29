// Package obs is the engine's zero-dependency observability layer:
// named counters, phase-latency histograms (backed by stats.Sample),
// gauge sampling, and a deterministic sim-time event tracer that exports
// chrome://tracing JSON (see trace.go).
//
// Design constraints, in order:
//
//  1. Off is free, and there is one way to say it. Every event is counted
//     by exactly one instrument. A nil *Counter or *Histogram is a no-op
//     and a nil Registry hands out nil instruments, so a package holds its
//     instrument set by value and calls it bare — no "is obs attached"
//     test around an Inc, Add or Observe. A span is different: Go
//     evaluates a call's arguments before the callee can decline them, so
//     a bare Complete/Instant on a nil *Tracer still concatenates the span
//     name and boxes every Arg. A span site therefore tests the tracer
//     first — `if trc := e.trc; trc != nil { trc.Complete(...) }` — and
//     builds nothing when tracing is off.
//  2. Deterministic. The DES runs one process at a time, so no locking is
//     needed; all rendering iterates instruments in sorted-name order and
//     trace events in insertion order, so two identical simulation runs
//     produce byte-identical output.
//  3. Zero dependencies. Only stdlib plus internal/stats.
package obs

import (
	"sort"

	"hatrpc/internal/stats"
)

// Counter is a monotonically increasing count, named by its registry.
type Counter struct{ v int64 }

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d. Safe on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram collects a distribution (typically phase latencies in
// nanoseconds) on top of stats.Sample, named by its registry.
type Histogram struct{ s stats.Sample }

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.s.Add(v)
	}
}

// Sample exposes the underlying sample for percentile queries.
func (h *Histogram) Sample() *stats.Sample { return &h.s }

// Gauge is a sampled value: the callback is invoked at render (or
// GaugeValue) time, not continuously.
type Gauge struct{ fn func() float64 }

// Registry holds every instrument of one observation domain (typically
// one benchmark run, possibly spanning several engines). It is not safe
// for concurrent use; the DES serializes all processes.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	tracer   *Tracer
}

// NewRegistry returns an empty registry with no tracer attached.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil, which is a valid no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge registers (or replaces) a sampled value under name. Re-registering
// is deliberate: sweep harnesses rebuild the simulated cluster per data
// point and the freshest closure wins.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges[name] = &Gauge{fn: fn}
}

// GaugeValue samples the named gauge.
func (r *Registry) GaugeValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	g, ok := r.gauges[name]
	if !ok {
		return 0, false
	}
	return g.fn(), true
}

// SetTracer attaches an event tracer; nil detaches it.
func (r *Registry) SetTracer(t *Tracer) {
	if r != nil {
		r.tracer = t
	}
}

// Tracer returns the attached tracer (nil when tracing is off — the nil
// tracer is itself a valid no-op).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
