package sca

import (
	"errors"
	"fmt"

	"medsec/internal/campaign"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/store"
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
// deterministic for any worker or lane count, and its checkpoints are
// one-shard ones: a finished campaign that did not stop grows to a
// larger budget in a later process, one that stopped keeps its verdict
// at any budget. Because the engine may
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

func tvlaRun(t *Target, p ec.Point, nPerSet, checkEvery int, firstIter, lastIter, order int, randKey func() modn.Scalar) (*TVLAResult, error) {
	if nPerSet < 10 {
		return nil, errors.New("sca: TVLA needs at least 10 traces per set")
	}
	start, end := t.prog.IterationWindow(t.Timing, firstIter, lastIter)
	plan := t.planWindow(start, end)
	prepare := t.fixedRandomPrepare(p, randKey)
	var total int
	var ts []float64
	var err error
	switch order {
	case 1:
		total, ts, err = tvlaFold[trace.OnlineStats](t, "welch", 2*nPerSet, checkEvery, plan, prepare)
	case 2:
		total, ts, err = tvlaFold[trace.OnlineMoments](t, "welch2", 2*nPerSet, checkEvery, plan, prepare)
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

// errEarlyStop is the early-stop fold sentinel: the running t-curve
// crossed TVLAThreshold at a check point, so the campaign is over.
var errEarlyStop = errors.New("sca: early stop")

// tvlaFold runs one fixed-vs-random campaign of `to` traces on the
// engine — the only fold leg of TVLA, TVLA2, their early-stop forms
// and LeakageMap — and returns the t-curve with the total folded trace
// count, including any prefix restored from a checkpoint (Target.Ckpt):
// the count an uninterrupted run of the same campaign would have
// reached. Even indices fold into population A, odd ones into B.
//
// It folds Target.Shards shards on the worker goroutines and merges
// them in shard order. With checkEvery > 0 it folds one shard in index
// order, and after every checkEvery-th completed pair (but not before
// 10 pairs) stops once the running |t| exceeds TVLAThreshold, so the
// stopping pair is the same at any worker or lane count.
//
// One checkpoint rule covers every shape. A one-shard campaign records
// its watermark and no cursors, so a later process may grow a finished
// one to a larger budget; a sharded one records its cursors. A running
// checkpoint holds one blob per shard ("<blobKey>.<shard>"), a finished
// one the merged accumulator ("<blobKey>"). blobKey ("welch" at first
// order, "welch2" at second) keeps one order's checkpoint from seeding
// the other.
func tvlaFold[P any, PP trace.Population[P]](t *Target, blobKey string, to, checkEvery int,
	plan *acqPlan, prepare campaign.PrepareFunc[acqJob]) (int, []float64, error) {
	ck := t.Ckpt
	cfg := t.engineConfig()
	if checkEvery > 0 {
		cfg.Shards = 1
	}
	lay := campaign.ShardingFor(0, to, cfg.Shards)
	header := func(mark int, cursors []int, complete bool) store.Header {
		h := ck.campHeader(0, to, lay.N)
		h.Watermark, h.Complete = mark, complete
		if lay.N > 1 {
			h.Cursors = cursors
		}
		return h
	}
	prev, err := ck.load(0, to, lay.N)
	if err != nil {
		return 0, nil, err
	}
	w := new(trace.Welch[P, PP])
	accs := make([]*trace.Welch[P, PP], lay.N)
	for s := range accs {
		accs[s] = new(trace.Welch[P, PP])
	}
	restore := func(acc *trace.Welch[P, PP], key string) error {
		if err := acc.UnmarshalBinary(prev.Blobs[key]); err != nil {
			return fmt.Errorf("sca: checkpoint %s %s blob: %w", ck.Path, key, err)
		}
		return nil
	}
	resumed := 0
	if prev != nil {
		h := prev.Header
		switch {
		case !h.Complete:
			for s, acc := range accs {
				if err := restore(acc, fmt.Sprintf("%s.%d", blobKey, s)); err != nil {
					return 0, nil, err
				}
			}
		case h.Watermark < h.To || h.To == to:
			// A finished campaign: either it stopped early (the verdict
			// stands at any budget) or it covered exactly this range.
			if err := restore(w, blobKey); err != nil {
				return 0, nil, err
			}
			ts, err := w.T()
			return h.Watermark, ts, err
		default:
			// A finished one-shard campaign at a smaller budget: the
			// fold continues from its merged accumulator.
			if err := restore(accs[0], blobKey); err != nil {
				return 0, nil, err
			}
		}
		resumed = h.Watermark
		cfg.Resume = h.Cursors
		if cfg.Resume == nil {
			cfg.Resume = []int{resumed}
		}
	}
	if ck.enabled() {
		cfg.CheckpointEvery = ck.Every
		// The hook runs holding every shard lock: each accumulator is
		// exactly its shard's folded prefix when it fires.
		cfg.Checkpoint = func(cursors []int) error {
			blobs := make(map[string][]byte, lay.N)
			mark := 0
			for s, acc := range accs {
				blob, err := acc.MarshalBinary()
				if err != nil {
					return err
				}
				blobs[fmt.Sprintf("%s.%d", blobKey, s)] = blob
				lo, _ := lay.Bounds(s)
				mark += cursors[s] - lo
			}
			return ck.write(header(mark, cursors, false), blobs)
		}
	}
	fold := welchShardFold[P, PP]
	stopAt := to
	if checkEvery > 0 {
		checks := t.Metrics.Counter("sca_earlystop_checks")
		fold = func(s int, acc *trace.Welch[P, PP], idx int, j acqJob, tr trace.Trace) error {
			if err := welchShardFold(s, acc, idx, j, tr); err != nil || idx%2 == 0 {
				return err
			}
			if pairs := idx/2 + 1; pairs >= 10 && pairs%checkEvery == 0 {
				checks.Inc()
				if mx, _ := acc.MaxT(); mx > TVLAThreshold {
					stopAt = idx + 1
					return errEarlyStop
				}
			}
			return nil
		}
	}
	folded, err := runCampaign(t, 0, to, cfg, plan, prepare,
		func(s int) *trace.Welch[P, PP] { return accs[s] }, fold,
		func(_ int, acc *trace.Welch[P, PP]) error { return w.Merge(acc) })
	total := resumed + folded
	if errors.Is(err, errEarlyStop) {
		// The engine skips the merge after a fold error; the one shard
		// holds the whole stopped campaign.
		total, err = stopAt, w.Merge(accs[0])
	}
	if err != nil {
		return total, nil, err
	}
	if ck.enabled() {
		blob, err := w.MarshalBinary()
		if err != nil {
			return total, nil, err
		}
		ends := make([]int, lay.N)
		for s := range ends {
			_, ends[s] = lay.Bounds(s)
		}
		if err := ck.write(header(total, ends, true), map[string][]byte{blobKey: blob}); err != nil {
			return total, nil, err
		}
	}
	ts, err := w.T()
	return total, ts, err
}
