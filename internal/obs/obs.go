// Package obs is the repo's low-overhead instrumentation layer: typed
// counters, gauges and fixed-bucket histograms behind a Registry, with
// a snapshot/export surface the lab CLIs use to emit per-run metric
// manifests (-metrics out.json).
//
// The paper's evidence chain is measured — 50.4 µW, 5.1 µJ per point
// multiplication, ~200 traces to DPA disclosure without RPC, 20 000
// traces of failure with it — and the bench "instrument rack" around
// the simulator (campaign engine, ARQ link, fault sweep) deserves the
// same treatment: unified counters instead of ad-hoc prints, so that
// throughput regressions and behavioural drift are visible in every
// run, not only when someone remembers to run the benchmark.
//
// # Design constraints
//
//  1. Deterministic-safe: metrics observe the simulation, they never
//     perturb it. Nothing in this package draws randomness, reorders
//     work, or feeds values back into the system under test. Every
//     golden trace hash and determinism test passes unchanged whether
//     a Registry is attached or not.
//  2. Nil-safe no-op default: a nil *Registry hands out nil typed
//     instruments, and every instrument method on a nil receiver is a
//     no-op. Call sites therefore instrument unconditionally —
//     c := reg.Counter("x"); c.Add(1) — and pay one predictable
//     branch, zero heap allocations, when instrumentation is disabled
//     (pinned by AllocsPerRun tests).
//  3. Race-free under concurrency: instruments are plain atomics, so
//     worker goroutines of the campaign engine update them without
//     locks and without changing fold ordering.
//
// # Snapshot determinism
//
// Registry.Snapshot returns plain maps; encoding/json sorts map keys,
// so two snapshots of equal state serialize byte-identically. The
// manifest layer (manifest.go) builds on that to make -metrics output
// diffable across runs.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event counter. The zero value is ready; a nil
// *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float instrument. The zero value is
// ready; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution instrument: observation v
// lands in the first bucket whose upper bound is >= v, or in the
// implicit +Inf overflow bucket. Bounds are fixed at construction so
// Observe never allocates; a nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a standalone histogram over the given ascending
// upper bounds. Most callers go through Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; bounds are short (tens),
	// so this is a handful of compares with no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramSnapshot is one histogram's frozen state. Counts has one
// entry per bound plus the trailing +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Registry owns a flat namespace of instruments. A nil *Registry is
// the disabled default: it hands out nil instruments and snapshots
// empty. Instrument lookup takes a mutex (do it once per campaign, not
// per sample); the instruments themselves are lock-free.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds). A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a frozen, export-ready view of a registry. The maps
// marshal with sorted keys (encoding/json's map contract), so equal
// states serialize byte-identically.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. A nil registry
// snapshots empty (non-nil, zero-length maps, so JSON stays stable).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
