// Package trace implements power-trace acquisition from the
// co-processor simulator and the statistics the side-channel workflow
// of the paper's Fig. 4 runs on it: per-sample means and variances,
// and Welch's t-test (TVLA leakage assessment) at first and second
// order. The CPA's correlations run in internal/sca, on the Set a CPA
// campaign retains.
//
// Campaigns fold traces into the streaming accumulators (stream.go:
// OnlineStats, OnlineWelch; stream2.go: OnlineMoments, OnlineWelch2),
// which consume one trace at a time in O(window) memory and back the
// parallel campaign engine in internal/campaign. The batch forms over
// a retained Set (WelchT, MeanTrace, CenterSquare, in the package's
// tests) are the oracles the streaming forms are checked against, to
// 1e-12.
//
// A Trace is the simulated counterpart of one oscilloscope capture:
// one power sample per clock cycle over a configurable cycle window.
// Attacks locate their points of interest from the microcode's static
// timing (coproc.Program's spans and iteration windows), so a trace
// carries samples only.
package trace

import (
	"errors"
	"math"
	"slices"
	"sync/atomic"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/power"
)

// Trace is one acquisition: power samples for consecutive clock
// cycles.
type Trace struct {
	// Samples holds instantaneous power (watts), one per cycle.
	Samples []float64
	// StartCycle is the global cycle index of Samples[0].
	StartCycle int
}

// samplePool is the process-wide free list of per-trace sample
// buffers. Traces recorded via Collector.LaneSink draw from it and
// return to it via Release; in a steady-state streaming campaign every
// trace reuses a buffer retired a few indices earlier, so acquisition
// allocates ~nothing per trace.
var samplePool campaign.BufferPool[float64]

// batchInitCap sizes a pooled buffer's first allocation. Later Gets
// reuse whatever capacity the campaign's traces actually needed.
const batchInitCap = 4096

// SamplePoolStats exposes the sample free list's hit/miss accounting
// (campaign.BufferPool.Stats) — the observability layer stamps its hit
// rate into run manifests as evidence the steady-state acquisition
// loop recycles its buffers.
func SamplePoolStats() campaign.PoolStats { return samplePool.Stats() }

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

// Release returns the trace's sample buffer to the shared pool and
// clears the header. Only call it on traces that are NOT retained
// (streaming statistics that have already folded the samples); a
// released trace must not be read again. Releasing a trace recorded
// outside the pooled path is harmless — its buffer simply joins the
// pool.
//
// Releasing the same trace twice (including through a copied header
// whose slice still points at the retired buffer) is a no-op on the
// second call rather than pool corruption.
func (t *Trace) Release() {
	s := t.Samples
	t.Samples = nil
	if cap(s) > 0 {
		p := &s[:cap(s)][0]
		if lastReleased.Swap(p) == p {
			// This backing array was the previous release and has not
			// been re-acquired since: a double release. The buffer is
			// already in the pool; putting it again would hand the
			// same memory to two future traces.
			return
		}
	}
	samplePool.Put(s)
}

// Collector records a power trace through a power model over a cycle
// window, or at a list of cycles (see LaneSink).
type Collector struct {
	Model *power.Model
	// Start and End bound the recorded cycle window [Start, End);
	// End <= 0 records to the end of the run. The run must event every
	// cycle of the window it reaches, as coproc.LaneCPU does from
	// QuietCycles on, so sample k belongs to cycle Start+k.
	Start, End int
	// Record, when non-nil, replaces the window: the collector keeps
	// one sample at each of these cycles (strictly ascending) and
	// ignores every other event.
	Record []int

	trace Trace
	// pending is set while trace holds the base energies LaneSink
	// stored since Begin, which the noise pass has yet to turn into
	// samples.
	pending bool
}

// NewCollector creates a collector over the given model and window.
func NewCollector(model *power.Model, start, end int) *Collector {
	return &Collector{Model: model, Start: start, End: end}
}

// LaneSink returns the per-cycle sink that records the trace: attach
// it to one lane of a coproc.LaneCPU (or to a coproc.CPU as its Probe).
// Call Begin before each trace. For each cycle it keeps (the window, or
// Record) the sink stores only the power model's noise-free base
// energy; the measurement noise is added after the run, when Take or
// TakeBatch turns the stored energies into samples. So windowing and
// recording never shift the noise stream: the sample at cycle c takes
// draw c of the model's stream, as in a run that evaluated every cycle
// (a real scope also keeps sampling), and a run that delivers only the
// recorded cycles (coproc.LaneCPU.Record) records the samples a fully
// evented run would at those cycles. Bit-identity with per-cycle
// CycleEnergy evaluation is pinned by TestLaneSinkMatchesReferenceProbe
// and TestCollectorRecordedMatchesReferenceProbe. Sample buffers come
// from a process-wide pool; hand them back with Trace.Release once the
// trace has been consumed.
func (c *Collector) LaneSink() coproc.Probe {
	c.Begin()
	return func(ev *coproc.CycleEvent) {
		if c.Record != nil {
			k := len(c.trace.Samples)
			if k == len(c.Record) || ev.Cycle != c.Record[k] {
				return
			}
		} else if ev.Cycle < c.Start || (c.End > 0 && ev.Cycle >= c.End) {
			return
		}
		c.trace.Samples = append(c.trace.Samples, c.Model.CycleBaseEnergy(ev))
	}
}

// Begin resets the collector for a fresh acquisition, drawing a
// zero-length sample buffer from the shared pool. The campaign
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
	c.trace = Trace{StartCycle: c.Start, Samples: s}
	c.pending = true
	if len(c.Record) > 0 {
		c.trace.StartCycle = c.Record[0]
	}
}

// Take adds the measurement noise to the trace LaneSink recorded since
// Begin (TakeBatch over this collector alone), returns it and resets
// the collector. The model's noise stream must stand at cycle 0, as
// power.NewModel and Model.Reinit leave it.
func (c *Collector) Take() Trace {
	var out [1]Trace
	TakeBatch([]*Collector{c}, out[:])
	return out[0]
}

// takeChunk is the number of collectors TakeBatch hands power.Samples
// per call, held in fixed arrays so the pass allocates nothing.
const takeChunk = 8

// TakeBatch adds the measurement noise to the traces LaneSink recorded
// for one lane batch, sets out[i] to cols[i]'s trace and resets the
// collectors. The collectors of a batch share Start, End and Record and
// kept the same cycles, so one power.Samples pass skips each gap in
// their noise streams for all of them at once. Collectors that differ
// are each passed alone. Every model's noise stream must stand at
// cycle 0, as power.NewModel and Model.Reinit leave it.
func TakeBatch(cols []*Collector, out []Trace) {
	same := true
	for i := 1; i < len(cols); i++ {
		same = same && cols[i].sameCycles(cols[0])
	}
	if same {
		addNoise(cols)
	} else {
		for i := range cols {
			addNoise(cols[i : i+1])
		}
	}
	for i, c := range cols {
		out[i], c.trace, c.pending = c.trace, Trace{}, false
	}
}

// addNoise runs one power.Samples pass over collectors that kept the
// same cycles, when their traces are pending it.
func addNoise(cols []*Collector) {
	if len(cols) == 0 || !cols[0].pending {
		return
	}
	var models [takeChunk]*power.Model
	var energies [takeChunk][]float64
	for lo := 0; lo < len(cols); lo += takeChunk {
		chunk := cols[lo:min(lo+takeChunk, len(cols))]
		for i, c := range chunk {
			models[i], energies[i] = c.Model, c.trace.Samples
		}
		power.Samples(models[:len(chunk)], energies[:len(chunk)], cols[0].Start, cols[0].Record)
	}
}

// sameCycles reports whether c kept the same cycles as o: the same
// window, or the same record list, and as many samples, both pending
// the noise pass or neither.
func (c *Collector) sameCycles(o *Collector) bool {
	if c.pending != o.pending || len(c.trace.Samples) != len(o.trace.Samples) || (c.Record == nil) != (o.Record == nil) {
		return false
	}
	if c.Record == nil {
		return c.Start == o.Start
	}
	return slices.Equal(c.Record[:len(c.trace.Samples)], o.Record[:len(o.trace.Samples)])
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
