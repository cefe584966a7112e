package sca

import (
	"errors"
	"fmt"

	"medsec/internal/campaign"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/trace"
)

// TVLAThreshold is the customary |t| > 4.5 evidence-of-leakage bound.
const TVLAThreshold = 4.5

// TVLAResult reports a fixed-vs-random-key Welch t-test campaign.
type TVLAResult struct {
	// TracesPerSet is the number of traces in each of the two sets
	// (the actually acquired count when early stopping fired).
	TracesPerSet int
	// MaxT is the largest absolute t-statistic over the window.
	MaxT float64
	// MaxTSample is the sample index of MaxT.
	MaxTSample int
	// LeakyPoints counts samples exceeding the threshold.
	LeakyPoints int
	// Leaks reports whether any point exceeded the threshold.
	Leaks bool
	// TCurve is the full per-sample t-statistic curve — O(window), kept
	// even though the campaign itself streams (determinism tests
	// compare it bit for bit across worker counts).
	TCurve []float64
	// CyclesPerTrace is the number of simulator cycles each acquisition
	// ran — campaign throughput accounting.
	CyclesPerTrace int
	// EarlyStopped reports that the early-stop predicate ended the
	// campaign before the requested trace count.
	EarlyStopped bool
	// PrologueCyclesSkipped is the number of leading cycles per trace
	// the acquisition plan executed quietly instead of through the
	// evented simulation pipeline (see plan.go).
	PrologueCyclesSkipped int
	// Order is the statistical order of the t-test: 1 for the plain
	// Welch test on the samples, 2 for the centered-product
	// (Schneider–Moradi) test that convicts first-order-masked designs.
	Order int
}

// TVLA runs the fixed-vs-random-scalar leakage assessment over the
// given ladder iteration window: one set uses the target's fixed key,
// the other a fresh random key per trace; both use the same public
// base point, so any significant difference is key-dependent leakage.
//
// The campaign streams through the parallel acquisition engine into a
// trace.OnlineWelch accumulator: memory is O(window) regardless of the
// trace count, acquisition fans out over t.Workers simulator
// instances, and the result is bit-identical for any worker count.
//
// randKey must draw scalars in the same fixed-length form the device
// uses (paper Algorithm 1 writes k = (1, k_{t-2}, ..., k_0): the
// leading one is part of the scalar encoding). Comparing fixed-form
// against free-form scalars would flag the — public — position of the
// leading one bit rather than genuine key leakage.
func TVLA(t *Target, p ec.Point, nPerSet int, firstIter, lastIter int, randKey func() modn.Scalar) (*TVLAResult, error) {
	return tvlaRun(t, p, nPerSet, 0, firstIter, lastIter, 1, randKey)
}

// TVLA2 is the second-order (centered-product) fixed-vs-random
// campaign: Welch's t on the centered-squared traces, streamed through
// trace.OnlineWelch2 so memory stays O(window) and the result is
// bit-identical for any worker count. This is the statistic that
// convicts a first-order-masked target (Target.Masked): masking pins
// every sample's mean but the share-summed activity's *variance* still
// follows the data, and the centered product is exactly the sample's
// second central moment. Checkpoints written by TVLA2 use the "welch2"
// blob namespace and are rejected by the first-order campaign (and
// vice versa).
func TVLA2(t *Target, p ec.Point, nPerSet int, firstIter, lastIter int, randKey func() modn.Scalar) (*TVLAResult, error) {
	return tvlaRun(t, p, nPerSet, 0, firstIter, lastIter, 2, randKey)
}

// TVLA2Until is TVLA2 with the early-stop predicate of TVLAUntil (same
// threshold, same pair cadence, same caveat about randKey's stream
// advancing by a bounded scheduling-dependent amount on early stop).
func TVLA2Until(t *Target, p ec.Point, maxPerSet, checkEvery int, firstIter, lastIter int, randKey func() modn.Scalar) (*TVLAResult, error) {
	if checkEvery < 1 {
		return nil, errors.New("sca: TVLA2Until needs a positive check interval")
	}
	return tvlaRun(t, p, maxPerSet, checkEvery, firstIter, lastIter, 2, randKey)
}

// TVLAUntil is TVLA with an early-stop predicate: it evaluates the
// streaming t-curve after every checkEvery-th completed fixed/random
// pair (starting at the 10-pair minimum) and ends the campaign as soon
// as |t| > TVLAThreshold — leaky designs are convicted in tens of
// traces instead of the full budget. The campaign folds serially (one
// shard, whatever Target.Shards says), so the stopping point is
// deterministic for any worker or lane count. Because the engine may
// prepare a few indices past the stop, randKey's stream is advanced by
// a bounded, scheduling-dependent amount once the campaign stops; do
// not share randKey's source with a later campaign after an
// early-stopped run.
func TVLAUntil(t *Target, p ec.Point, maxPerSet, checkEvery int, firstIter, lastIter int, randKey func() modn.Scalar) (*TVLAResult, error) {
	if checkEvery < 1 {
		return nil, errors.New("sca: TVLAUntil needs a positive check interval")
	}
	return tvlaRun(t, p, maxPerSet, checkEvery, firstIter, lastIter, 1, randKey)
}

// tvlaLeg dispatches one order's campaign between the early-stop and
// full-budget engine legs — the generic core shared by both
// statistical orders (blobKey namespaces the checkpoint blobs per
// order).
func tvlaLeg[W welchStat[W]](t *Target, w W, blobKey string, mk func() W, nPerSet, checkEvery int, plan *acqPlan, prepare campaign.PrepareFunc[acqJob]) (int, []float64, error) {
	var total int
	var err error
	if checkEvery > 0 {
		// "Stop once |t| exceeds the threshold after pair k" needs one
		// in-order fold: the serial (single-shard) leg.
		total, err = tvlaUntil(t, w, blobKey, 2*nPerSet, checkEvery, plan, prepare)
	} else {
		// Full-budget campaign: reduce through per-shard Welch
		// accumulators folded on the worker goroutines and merged in
		// shard order.
		total, err = tvlaSharded(t, w, blobKey, mk, 2*nPerSet, plan, prepare)
	}
	if err != nil {
		return total, nil, err
	}
	ts, err := w.T()
	return total, ts, err
}

func tvlaRun(t *Target, p ec.Point, nPerSet, checkEvery int, firstIter, lastIter, order int, randKey func() modn.Scalar) (*TVLAResult, error) {
	if nPerSet < 10 {
		return nil, errors.New("sca: TVLA needs at least 10 traces per set")
	}
	start, end := t.prog.IterationWindow(t.Timing, firstIter, lastIter)
	plan := t.planWindow(start, end)
	prepare := t.fixedRandomPrepare(p, randKey)
	// total counts every folded trace, including a prefix restored from
	// a checkpoint (Target.Ckpt) — the count an uninterrupted run of
	// the same campaign would have reached.
	var total int
	var ts []float64
	var err error
	switch order {
	case 1:
		total, ts, err = tvlaLeg(t, trace.NewOnlineWelch(), "welch", trace.NewOnlineWelch, nPerSet, checkEvery, plan, prepare)
	case 2:
		total, ts, err = tvlaLeg(t, trace.NewOnlineWelch2(), "welch2", trace.NewOnlineWelch2, nPerSet, checkEvery, plan, prepare)
	default:
		return nil, fmt.Errorf("sca: unsupported TVLA order %d (want 1 or 2)", order)
	}
	if err != nil {
		return nil, err
	}
	res := &TVLAResult{
		TracesPerSet:          total / 2,
		TCurve:                ts,
		CyclesPerTrace:        end,
		EarlyStopped:          total < 2*nPerSet,
		PrologueCyclesSkipped: plan.quiet,
		Order:                 order,
	}
	res.MaxT, res.MaxTSample = trace.MaxAbs(ts)
	for _, v := range ts {
		if v > TVLAThreshold || v < -TVLAThreshold {
			res.LeakyPoints++
		}
	}
	res.Leaks = res.LeakyPoints > 0
	// Campaign-level gauges: the analysis outcome alongside the
	// per-trace counters (all nil-safe when t.Metrics is nil).
	t.Metrics.Gauge("sca_tvla_pairs").Set(float64(res.TracesPerSet))
	t.Metrics.Gauge("sca_tvla_max_t").Set(res.MaxT)
	if res.EarlyStopped {
		t.Metrics.Gauge("sca_tvla_early_stopped").Set(1)
	} else {
		t.Metrics.Gauge("sca_tvla_early_stopped").Set(0)
	}
	return res, nil
}

// FixedPoint returns a deterministic base point for TVLA campaigns.
func FixedPoint(c *ec.Curve) ec.Point { return c.Generator() }
