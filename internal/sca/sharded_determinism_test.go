package sca

import (
	"math"
	"reflect"
	"testing"

	"medsec/internal/modn"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

// Determinism pins: the sharded reduction must be bit-identical across
// worker counts at a fixed shard count, reproduce the serial reference
// loop exactly at S=1, and agree across shard counts to floating-point
// rounding; the quiet acquisition prologue must leave every recorded
// sample bit-identical to the full evented pipeline.

func tvlaWith(t *testing.T, workers, shards int, noSkip bool, firstIter, lastIter int) *TVLAResult {
	t.Helper()
	tgt := newDPATarget(t, false, 91)
	tgt.Workers = workers
	tgt.Shards = shards
	tgt.noPrologueSkip = noSkip
	src := rng.NewDRBG(14).Uint64
	randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
	res, err := TVLA(tgt, FixedPoint(tgt.Curve), 20, firstIter, lastIter, randKey)
	if err != nil {
		t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
	}
	return res
}

func TestTVLAShardedDeterminismAcrossWorkers(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		base := tvlaWith(t, 1, shards, false, 159, 157)
		for _, w := range determinismWorkers[1:] {
			res := tvlaWith(t, w, shards, false, 159, 157)
			if !reflect.DeepEqual(res.TCurve, base.TCurve) {
				t.Errorf("shards=%d workers=%d: t-curve differs bit-for-bit from single-worker run", shards, w)
			}
		}
	}
}

// serialTVLA is the reference the engine is pinned against: every
// trace acquired in index order on one width-1 lane bank and folded
// straight into one Welch accumulator — the historical serial loop.
func serialTVLA(t *testing.T, tgt *Target, nPerSet, firstIter, lastIter int, randKey func() modn.Scalar) []float64 {
	t.Helper()
	p := FixedPoint(tgt.Curve)
	start, end := tgt.Window(firstIter, lastIter)
	plan := tgt.planWindow(start, end)
	prepare := tgt.fixedRandomPrepare(p, randKey)
	s := tgt.newLaneScratch(1)
	w := trace.NewOnlineWelch()
	for idx := 0; idx < 2*nPerSet; idx++ {
		j, _ := prepare(idx)
		if err := welchShardFold(0, w, idx, j, acquireJobs(t, tgt, s, plan, []acqJob{j})[0]); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := w.T()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTVLAShardedSingleShardDeterminismMatchesLegacy pins that one
// shard reproduces the serial reference loop bit for bit: both fold
// every trace in global index order into one Welch accumulator.
func TestTVLAShardedSingleShardDeterminismMatchesLegacy(t *testing.T) {
	oneShard := tvlaWith(t, 3, 1, false, 159, 157)
	tgt := newDPATarget(t, false, 91)
	src := rng.NewDRBG(14).Uint64
	legacy := serialTVLA(t, tgt, 20, 159, 157, func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) })
	if !reflect.DeepEqual(oneShard.TCurve, legacy) {
		t.Fatal("Shards=1 t-curve differs from the serial reference loop")
	}
}

// TestTVLAShardCountAgreementToRounding pins the cross-shard-count
// contract: different S reassociate the reduction, so t-curves agree
// to ~1e-12 relative, not bit-for-bit.
func TestTVLAShardCountAgreementToRounding(t *testing.T) {
	base := tvlaWith(t, 2, 1, false, 159, 157)
	for _, shards := range []int{4, 16} {
		res := tvlaWith(t, 2, shards, false, 159, 157)
		if len(res.TCurve) != len(base.TCurve) {
			t.Fatalf("shards=%d: curve length %d vs %d", shards, len(res.TCurve), len(base.TCurve))
		}
		for i := range base.TCurve {
			d := math.Abs(res.TCurve[i] - base.TCurve[i])
			tol := 1e-9 * math.Max(1, math.Abs(base.TCurve[i]))
			if d > tol {
				t.Fatalf("shards=%d: t[%d] = %.17g vs %.17g (diff %g beyond rounding)", shards, i, res.TCurve[i], base.TCurve[i], d)
			}
		}
	}
}

// TestPrologueSkipDeterminismBitIdentical pins the acquisition-plan
// contract: the quiet prologue changes HOW the pre-window cycles are
// simulated, never WHAT the window records. Campaign traces, TVLA
// t-curves and SPA features must be bit-identical with the planner
// enabled and disabled, for both the protected (RPC) and unprotected
// microcode, including a deep TVLA window over fixed- and random-key
// traces.
func TestPrologueSkipDeterminismBitIdentical(t *testing.T) {
	for _, rpc := range []bool{false, true} {
		// Campaign acquisition (random base points).
		camp := func(noSkip bool) *Campaign {
			tgt := newDPATarget(t, rpc, 92)
			tgt.noPrologueSkip = noSkip
			c, err := tgt.AcquireCampaign(12, 158, 156, rng.NewDRBG(21).Uint64)
			if err != nil {
				t.Fatalf("rpc=%v noSkip=%v: %v", rpc, noSkip, err)
			}
			return c
		}
		ref := camp(true)
		opt := camp(false)
		if !reflect.DeepEqual(campaignFingerprint(opt), campaignFingerprint(ref)) {
			t.Errorf("rpc=%v: campaign traces differ between planned and full-pipeline acquisition", rpc)
		}
		if skipped := opt.PrologueCyclesSkipped(); skipped <= 0 {
			t.Errorf("rpc=%v: planner skipped %d prologue cycles, want > 0", rpc, skipped)
		}

		// TVLA over a deep window (fixed point).
		tvla := func(noSkip bool) *TVLAResult {
			tgt := newDPATarget(t, rpc, 93)
			tgt.noPrologueSkip = noSkip
			src := rng.NewDRBG(22).Uint64
			randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
			res, err := TVLA(tgt, FixedPoint(tgt.Curve), 15, 156, 154, randKey)
			if err != nil {
				t.Fatalf("rpc=%v noSkip=%v: %v", rpc, noSkip, err)
			}
			return res
		}
		tRef := tvla(true)
		tOpt := tvla(false)
		if !reflect.DeepEqual(tOpt.TCurve, tRef.TCurve) {
			t.Errorf("rpc=%v: TVLA t-curve differs between planned and full-pipeline acquisition", rpc)
		}
		if tRef.PrologueCyclesSkipped != 0 {
			t.Errorf("rpc=%v: full-pipeline run reports %d skipped cycles", rpc, tRef.PrologueCyclesSkipped)
		}
		if tOpt.PrologueCyclesSkipped <= 0 {
			t.Errorf("rpc=%v: planned TVLA reports %d skipped cycles, want > 0", rpc, tOpt.PrologueCyclesSkipped)
		}

		// SPA full-ladder averaging (short prologue, fixed key).
		spa := func(noSkip bool) *SPAResult {
			tgt := newDPATarget(t, rpc, 94)
			tgt.noPrologueSkip = noSkip
			p := tgt.Curve.RandomPoint(rng.NewDRBG(23).Uint64)
			res, err := SPAProfiled(tgt, p, 6)
			if err != nil {
				t.Fatalf("rpc=%v noSkip=%v: %v", rpc, noSkip, err)
			}
			return res
		}
		sRef := spa(true)
		sOpt := spa(false)
		if !reflect.DeepEqual(sOpt.Features, sRef.Features) {
			t.Errorf("rpc=%v: SPA features differ between planned and full-pipeline acquisition", rpc)
		}
	}
}

// TestShardedCampaignDeterminismAcrossWorkers pins the positional-write
// campaign reduction: the retained trace set is identical for any
// worker and shard count and identical to the serial single-worker,
// single-shard run.
func TestShardedCampaignDeterminismAcrossWorkers(t *testing.T) {
	acquire := func(workers, shards int) *Campaign {
		tgt := newDPATarget(t, false, 95)
		tgt.Workers = workers
		tgt.Shards = shards
		c, err := tgt.AcquireCampaign(30, 160, 157, rng.NewDRBG(31).Uint64)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
		}
		return c
	}
	legacy := acquire(1, 1)
	want := campaignFingerprint(legacy)
	for _, w := range determinismWorkers {
		for _, shards := range []int{1, 4} {
			c := acquire(w, shards)
			if !reflect.DeepEqual(campaignFingerprint(c), want) {
				t.Errorf("workers=%d shards=%d: campaign traces differ from the serial acquisition", w, shards)
			}
			if !reflect.DeepEqual(c.Points, legacy.Points) {
				t.Errorf("workers=%d shards=%d: campaign points differ from the serial acquisition", w, shards)
			}
		}
	}
}
