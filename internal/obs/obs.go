// Package obs is the observability layer for the capture/spill/decode/
// replay pipeline: atomic counters, gauges and fixed-bucket histograms
// in a named registry, with a deterministic plain-text exposition format
// and an expvar-compatible HTTP handler.
//
// The paper's credibility rests on accounting for what tracing itself
// costs — slowdown, trace loss at buffer-full, dilation — and a
// production capture has to report those numbers *while it runs*, not
// post-mortem. Every metric here is therefore safe to read from a
// polling goroutine while the capture loop writes it: counters and
// gauges are single atomics, histogram buckets are atomics, and the
// registry itself is a mutex-guarded name table that is only locked on
// registration and exposition, never on the increment hot path.
//
// The package is a leaf — stdlib only — so every layer of the pipeline
// (collector, kernel spill service, trace decode, sweep engine) can
// import it without cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (a level, not a total):
// worker occupancy, replay rate, queue depth. The zero value is ready
// to use; all methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (CAS loop; deltas never get lost).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket, strictly increasing; an
// implicit +Inf bucket catches the overflow, so every observation lands
// somewhere. Observe is lock-free: one atomic add for the bucket, one
// for the count, a CAS loop for the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a free-standing histogram (registries build their
// own via Registry.Histogram). Bounds must be strictly increasing.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: v <= bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the cumulative count at each upper bound, ending with
// the +Inf bucket (== Count up to concurrent skew).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return h.bounds, cumulative
}

// DefSecondsBuckets is the default latency bucket layout (seconds),
// spanning microseconds to single-digit seconds.
var DefSecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Registry is a named set of metrics. Lookups get-or-create, so any
// layer can resolve the same metric by name without coordination; the
// exposition walk is sorted by name, so output is deterministic.
type Registry struct {
	mu   sync.Mutex
	vars map[string]any // guarded by mu; *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{vars: map[string]any{}} }

// defaultRegistry is the process-wide registry the pipeline layers
// instrument into; commands expose it via -metrics-addr/-metrics-dump.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup get-or-creates name, building a missing metric with mk. A name
// registered under a different metric type panics: that is a programming
// error, not runtime input.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v := mk()
	r.vars[name] = v
	return v
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	v := r.lookup(name, func() any { return new(Counter) })
	c, ok := v.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q registered as %T, not counter", name, v))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	v := r.lookup(name, func() any { return new(Gauge) })
	g, ok := v.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q registered as %T, not gauge", name, v))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls reuse the
// existing buckets regardless of bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	v := r.lookup(name, func() any { return NewHistogram(bounds) })
	h, ok := v.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q registered as %T, not histogram", name, v))
	}
	return h
}

// names returns the sorted metric names.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.vars))
	for n := range r.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// get returns the metric under name, or nil.
func (r *Registry) get(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vars[name]
}

// PeekCounter reads the counter registered under name without creating
// it; ok reports whether such a counter exists. For consumers (like the
// monitor's status view) that must not pollute the registry with
// metrics nothing is producing.
func (r *Registry) PeekCounter(name string) (v uint64, ok bool) {
	if c, isC := r.get(name).(*Counter); isC {
		return c.Value(), true
	}
	return 0, false
}

// PeekGauge reads the gauge registered under name without creating it;
// ok reports whether such a gauge exists.
func (r *Registry) PeekGauge(name string) (v float64, ok bool) {
	if g, isG := r.get(name).(*Gauge); isG {
		return g.Value(), true
	}
	return 0, false
}

// formatFloat renders a float the same way everywhere (shortest
// round-trip form), so the exposition format is stable enough to pin
// with a golden test.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
