// Package trace implements power-trace acquisition from the
// co-processor simulator and the statistics the side-channel workflow
// of the paper's Fig. 4 needs: per-sample means/variances, Welch's
// t-test (TVLA leakage assessment), difference of means (classic DPA),
// and Pearson correlation (CPA).
//
// Each statistic exists in two forms: a batch form over a retained
// trace Set (this file) and a streaming form (stream.go: OnlineStats,
// OnlineWelch, OnlineDoM, OnlineCPA) that consumes one trace at a time
// in O(window) memory. The streaming forms back the parallel campaign
// engine in internal/campaign and agree with the batch forms to
// floating-point rounding (cross-tested to 1e-12).
//
// A Trace is the simulated counterpart of one oscilloscope capture:
// one power sample per clock cycle over a configurable cycle window.
package trace

import (
	"errors"
	"math"
	"sync/atomic"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/power"
)

// Trace is one acquisition: power samples for consecutive clock
// cycles, plus the ladder-iteration index of each sample so attacks
// can segment by iteration.
type Trace struct {
	// Samples holds instantaneous power (watts), one per cycle.
	Samples []float64
	// Iter holds the ladder iteration of each sample (-1 outside the
	// ladder loop). Aligned with Samples.
	Iter []int32
	// StartCycle is the global cycle index of Samples[0].
	StartCycle int
}

// Process-wide free lists for per-trace buffers. Traces recorded via
// Collector.LaneSink draw from these pools and return to them via
// Release; in a steady-state streaming campaign every trace reuses a
// buffer retired a few indices earlier, so acquisition allocates
// ~nothing per trace.
var (
	samplePool campaign.BufferPool[float64]
	iterPool   campaign.BufferPool[int32]
)

// batchInitCap sizes a pooled buffer's first allocation. Later Gets
// reuse whatever capacity the campaign's traces actually needed.
const batchInitCap = 4096

// SamplePoolStats and IterPoolStats expose the process-wide free
// lists' hit/miss accounting (campaign.BufferPool.Stats) — the
// observability layer stamps their hit rates into run manifests as
// evidence the steady-state acquisition loop recycles its buffers.
func SamplePoolStats() campaign.PoolStats { return samplePool.Stats() }
func IterPoolStats() campaign.PoolStats   { return iterPool.Stats() }

// lastReleased remembers the backing array of the most recently
// released sample buffer. Trace flows through consumers by value, so a
// stale copy of an already-released header still points at the pooled
// array; without a guard, releasing that copy would insert the same
// buffer into the pool twice and two later acquisitions would record
// into shared memory. Tracking the last release catches the realistic
// double-release shape (the same trace released twice in a row through
// copied headers) with one atomic word and no per-buffer bookkeeping.
// Collector.Begin clears the sentinel when the pool hands the guarded
// array back out, so steady-state reuse — release, re-acquire,
// release again — is not mistaken for a double free.
var lastReleased atomic.Pointer[float64]

// Release returns the trace's buffers to the shared pool and clears
// the header. Only call it on traces that are NOT retained (streaming
// statistics that have already folded the samples); a released trace
// must not be read again. Releasing a trace recorded outside the
// pooled path is harmless — its buffers simply join the pool.
//
// Releasing the same trace twice (including through a copied header
// whose slices still point at the retired buffers) is a no-op on the
// second call rather than pool corruption.
func (t *Trace) Release() {
	s, it := t.Samples, t.Iter
	t.Samples, t.Iter = nil, nil
	if cap(s) > 0 {
		p := &s[:cap(s)][0]
		if lastReleased.Swap(p) == p {
			// This backing array was the previous release and has not
			// been re-acquired since: a double release. The buffers
			// are already in the pool; putting them again would hand
			// the same memory to two future traces.
			return
		}
	}
	samplePool.Put(s)
	iterPool.Put(it)
}

// SegmentByIteration returns the half-open sample ranges
// [start, end) of each ladder iteration present in the trace, keyed by
// iteration index.
func (t *Trace) SegmentByIteration() map[int][2]int {
	seg := map[int][2]int{}
	for i, it := range t.Iter {
		if it < 0 {
			continue
		}
		r, ok := seg[int(it)]
		if !ok {
			seg[int(it)] = [2]int{i, i + 1}
			continue
		}
		r[1] = i + 1
		seg[int(it)] = r
	}
	return seg
}

// noiseRingLen is the block size of the lane sink's measurement-noise
// ring: one power.Model.FillNoise call per 256 cycles instead of one
// Gaussian sample per cycle.
const noiseRingLen = 256

// Collector records a power trace through a power model over a cycle
// window (see LaneSink).
type Collector struct {
	Model *power.Model
	// Start and End bound the recorded cycle window [Start, End);
	// End <= 0 records to the end of the run.
	Start, End int

	trace Trace

	// Noise ring of the sink; ringPos == noiseRingLen means empty.
	ring    [noiseRingLen]float64
	ringPos int
}

// NewCollector creates a collector over the given model and window.
func NewCollector(model *power.Model, start, end int) *Collector {
	return &Collector{Model: model, Start: start, End: end}
}

// LaneSink returns the per-cycle sink that records the trace: attach
// it to one lane of a coproc.LaneCPU (or to a coproc.CPU as its Probe).
// Each cycle costs the power model's noise-free base energy plus a
// measurement-noise term taken from a block-refilled ring; cycles
// outside the window advance the ring cursor without evaluating the
// model, so windowing never shifts the noise stream (a real scope also
// keeps sampling). Together with the ring's end-of-trace overdraw this
// leaves the noise source in a different final state than per-cycle
// CycleEnergy calls would, which is unobservable because every trace
// re-seeds its model before acquiring. Call Begin before each trace.
// Bit-identity with per-cycle CycleEnergy evaluation is pinned by
// TestLaneSinkMatchesReferenceProbe. Sample buffers come from a
// process-wide pool; hand them back with Trace.Release once the trace
// has been consumed.
func (c *Collector) LaneSink() coproc.Probe {
	c.Begin()
	return func(ev *coproc.CycleEvent) {
		var n float64
		if c.Model.NoiseEnabled() {
			if c.ringPos == noiseRingLen {
				c.Model.FillNoise(c.ring[:])
				c.ringPos = 0
			}
			n = c.ring[c.ringPos]
			c.ringPos++
		}
		if ev.Cycle < c.Start || (c.End > 0 && ev.Cycle >= c.End) {
			return
		}
		c.trace.Samples = append(c.trace.Samples, (c.Model.CycleBaseEnergy(ev)+n)*c.Model.ClockHz())
		c.trace.Iter = append(c.trace.Iter, int32(ev.Iteration))
	}
}

// Begin resets the collector for a fresh acquisition, drawing
// zero-length sample buffers from the shared pool. The campaign
// engine's per-worker scratch collectors call Begin once per trace and
// reuse the sink closure returned by an earlier LaneSink call, so
// steady-state acquisition allocates nothing.
func (c *Collector) Begin() {
	s := samplePool.Get(batchInitCap)
	if cap(s) > 0 {
		// The pool handed this array back out; it is live again, so a
		// future Release of it is legitimate (see lastReleased).
		lastReleased.CompareAndSwap(&s[:cap(s)][0], nil)
	}
	c.trace = Trace{
		StartCycle: c.Start,
		Samples:    s,
		Iter:       iterPool.Get(batchInitCap),
	}
	c.ringPos = noiseRingLen
}

// Take returns the recorded trace and resets the collector.
func (c *Collector) Take() Trace {
	tr := c.trace
	c.trace = Trace{}
	return tr
}

// Set is a collection of equal-length traces (one acquisition
// campaign).
type Set struct {
	Traces []Trace
}

// ErrEmptySet is returned by statistics over empty or misshapen sets.
var ErrEmptySet = errors.New("trace: empty or ragged trace set")

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.Traces) }

// Add appends a trace.
func (s *Set) Add(t Trace) { s.Traces = append(s.Traces, t) }

// Prefix returns a view of the first n traces (all of them when
// n >= Len). The view ALIASES the receiver: the Trace headers and the
// underlying sample slices are shared, so mutating samples through
// either set is visible in both — callers computing summary statistics
// over a prefix must not modify the parent concurrently. The view's
// Traces slice is capacity-clamped, so Add on the view reallocates
// instead of clobbering the parent's trace n (the bug the old ad-hoc
// `Set{Traces: s.Traces[:n]}` pattern allowed).
func (s *Set) Prefix(n int) *Set {
	if n < 0 {
		n = 0
	}
	if n > len(s.Traces) {
		n = len(s.Traces)
	}
	return &Set{Traces: s.Traces[:n:n]}
}

// SampleLen returns the per-trace sample count, or 0 for an empty set.
func (s *Set) SampleLen() int {
	if len(s.Traces) == 0 {
		return 0
	}
	return len(s.Traces[0].Samples)
}

// validate checks the set is non-empty and rectangular.
func (s *Set) validate() error {
	if len(s.Traces) == 0 || len(s.Traces[0].Samples) == 0 {
		return ErrEmptySet
	}
	n := len(s.Traces[0].Samples)
	for _, t := range s.Traces {
		if len(t.Samples) != n {
			return ErrEmptySet
		}
	}
	return nil
}

// MeanTrace returns the per-sample mean across the set.
func (s *Set) MeanTrace() ([]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.SampleLen()
	mean := make([]float64, n)
	for _, t := range s.Traces {
		for i, v := range t.Samples {
			mean[i] += v
		}
	}
	inv := 1 / float64(len(s.Traces))
	for i := range mean {
		mean[i] *= inv
	}
	return mean, nil
}

// meanVar returns per-sample mean and (population) variance.
func (s *Set) meanVar() (mean, variance []float64, err error) {
	mean, err = s.MeanTrace()
	if err != nil {
		return nil, nil, err
	}
	variance = make([]float64, len(mean))
	for _, t := range s.Traces {
		for i, v := range t.Samples {
			d := v - mean[i]
			variance[i] += d * d
		}
	}
	inv := 1 / float64(len(s.Traces))
	for i := range variance {
		variance[i] *= inv
	}
	return mean, variance, nil
}

// WelchT computes the per-sample Welch t-statistic between two sets —
// the TVLA fixed-vs-random leakage test. |t| > 4.5 is the customary
// evidence-of-leakage threshold.
func WelchT(a, b *Set) ([]float64, error) {
	ma, va, err := a.meanVar()
	if err != nil {
		return nil, err
	}
	mb, vb, err := b.meanVar()
	if err != nil {
		return nil, err
	}
	if len(ma) != len(mb) {
		return nil, ErrEmptySet
	}
	na, nb := float64(a.Len()), float64(b.Len())
	out := make([]float64, len(ma))
	for i := range ma {
		denom := math.Sqrt(va[i]/na + vb[i]/nb)
		if denom == 0 {
			out[i] = 0
			continue
		}
		out[i] = (ma[i] - mb[i]) / denom
	}
	return out, nil
}

// DiffOfMeans computes the per-sample difference of means between the
// traces selected by part (true) and the rest — the original DPA
// statistic of Kocher, Jaffe and Jun [8].
func DiffOfMeans(s *Set, part []bool) ([]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(part) != s.Len() {
		return nil, errors.New("trace: partition length mismatch")
	}
	n := s.SampleLen()
	sum1 := make([]float64, n)
	sum0 := make([]float64, n)
	c1, c0 := 0, 0
	for ti, t := range s.Traces {
		if part[ti] {
			c1++
			for i, v := range t.Samples {
				sum1[i] += v
			}
		} else {
			c0++
			for i, v := range t.Samples {
				sum0[i] += v
			}
		}
	}
	if c1 == 0 || c0 == 0 {
		return nil, errors.New("trace: degenerate partition")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = sum1[i]/float64(c1) - sum0[i]/float64(c0)
	}
	return out, nil
}

// Pearson computes the per-sample Pearson correlation between the
// hypothesis vector h (one prediction per trace) and the measured
// power — the CPA statistic.
func Pearson(s *Set, h []float64) ([]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(h) != s.Len() {
		return nil, errors.New("trace: hypothesis length mismatch")
	}
	n := s.SampleLen()
	nt := float64(s.Len())
	var hMean float64
	for _, v := range h {
		hMean += v
	}
	hMean /= nt
	var hVar float64
	for _, v := range h {
		d := v - hMean
		hVar += d * d
	}
	mean, variance, err := s.meanVar()
	if err != nil {
		return nil, err
	}
	cov := make([]float64, n)
	for ti, t := range s.Traces {
		hd := h[ti] - hMean
		for i, v := range t.Samples {
			cov[i] += hd * (v - mean[i])
		}
	}
	out := make([]float64, n)
	for i := range out {
		denom := math.Sqrt(hVar * variance[i] * nt)
		if denom == 0 {
			out[i] = 0
			continue
		}
		out[i] = cov[i] / denom
	}
	return out, nil
}

// PearsonAt computes the Pearson correlation between the hypothesis
// vector h and the single sample column col — the CPA statistic at a
// known point of interest (e.g. a specific writeback cycle).
func PearsonAt(s *Set, h []float64, col int) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if len(h) != s.Len() {
		return 0, errors.New("trace: hypothesis length mismatch")
	}
	if col < 0 || col >= s.SampleLen() {
		return 0, errors.New("trace: column out of range")
	}
	n := float64(s.Len())
	var sh, sx, shh, sxx, shx float64
	for ti, t := range s.Traces {
		x := t.Samples[col]
		sh += h[ti]
		sx += x
		shh += h[ti] * h[ti]
		sxx += x * x
		shx += h[ti] * x
	}
	cov := shx - sh*sx/n
	vh := shh - sh*sh/n
	vx := sxx - sx*sx/n
	if vh <= 0 || vx <= 0 {
		return 0, nil
	}
	return cov / math.Sqrt(vh*vx), nil
}

// MaxAbs returns the maximum absolute value in xs and its index;
// (0, -1) for empty input.
func MaxAbs(xs []float64) (float64, int) {
	best, idx := 0.0, -1
	for i, v := range xs {
		if a := math.Abs(v); a > best {
			best, idx = a, i
		}
	}
	return best, idx
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
