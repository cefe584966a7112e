package sca

import (
	"reflect"
	"testing"

	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/rng"
)

// TestMetricsObserveNeverPerturb is the tentpole invariant at the sca
// level: running the same TVLA campaign with and without a live
// registry yields a bit-identical t-curve, and the instrumented run's
// counters account for every acquisition exactly.
func TestMetricsObserveNeverPerturb(t *testing.T) {
	const nPerSet = 15
	run := func(reg *obs.Registry) *TVLAResult {
		tgt := newDPATarget(t, false, 91)
		tgt.Workers = 3
		tgt.Metrics = reg
		src := rng.NewDRBG(13).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		res, err := TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	bare := run(nil)
	reg := obs.New()
	inst := run(reg)

	if !reflect.DeepEqual(bare.TCurve, inst.TCurve) {
		t.Fatal("metrics perturbed the campaign: t-curves differ")
	}
	if bare.MaxT != inst.MaxT || bare.TracesPerSet != inst.TracesPerSet {
		t.Fatalf("metrics perturbed results: %+v vs %+v", bare, inst)
	}

	total := int64(2 * nPerSet)
	if got := reg.Counter("sca_traces_acquired").Value(); got != total {
		t.Fatalf("sca_traces_acquired = %d, want %d", got, total)
	}
	// Every trace ran the same quiet prologue.
	if inst.PrologueCyclesSkipped <= 0 {
		t.Fatalf("PrologueCyclesSkipped = %d, want > 0 for a window at iteration 160", inst.PrologueCyclesSkipped)
	}
	want := int64(inst.PrologueCyclesSkipped) * total
	if got := reg.Counter("sca_prologue_cycles_skipped").Value(); got != want {
		t.Fatalf("sca_prologue_cycles_skipped = %d, want %d", got, want)
	}
	// Engine-level accounting rode along on the same registry.
	if got := reg.Counter("campaign_acquired").Value(); got != total {
		t.Fatalf("campaign_acquired = %d, want %d", got, total)
	}
	if got := reg.Gauge("sca_tvla_pairs").Value(); got != float64(inst.TracesPerSet) {
		t.Fatalf("sca_tvla_pairs = %v, want %d", got, inst.TracesPerSet)
	}
	if got := reg.Gauge("sca_tvla_max_t").Value(); got != inst.MaxT {
		t.Fatalf("sca_tvla_max_t = %v, want %v", got, inst.MaxT)
	}
}

// TestLaneBatchMetrics pins the lane-batched campaign's
// instrumentation: the campaign_lanes gauge reports the configured
// lane count, the batch-fill histogram accounts every dispatched
// batch (including the final underfilled one when lanes does not
// divide the trace count), and the sca acquisition counters stay
// exact — all without perturbing the statistics.
func TestLaneBatchMetrics(t *testing.T) {
	const nPerSet = 15 // 30 traces: 7 full batches of 4 + 1 batch of 2
	run := func(lanes int, reg *obs.Registry) *TVLAResult {
		tgt := newDPATarget(t, false, 91)
		tgt.Workers = 3
		tgt.Shards = 1
		tgt.Lanes = lanes
		tgt.Metrics = reg
		src := rng.NewDRBG(13).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		res, err := TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	bare := run(4, nil)
	reg := obs.New()
	inst := run(4, reg)
	if !reflect.DeepEqual(bare.TCurve, inst.TCurve) {
		t.Fatal("lane metrics perturbed the campaign: t-curves differ")
	}

	if got := reg.Gauge("campaign_lanes").Value(); got != 4 {
		t.Fatalf("campaign_lanes = %v, want 4", got)
	}
	total := int64(2 * nPerSet)
	if got := reg.Counter("sca_traces_acquired").Value(); got != total {
		t.Fatalf("sca_traces_acquired = %d, want %d", got, total)
	}
	fill := reg.Histogram("campaign_batch_fill", nil)
	if got := fill.Count(); got != 8 {
		t.Fatalf("campaign_batch_fill count = %d, want 8 batches", got)
	}
	if got := fill.Sum(); got != float64(total) {
		t.Fatalf("campaign_batch_fill sum = %v, want %d traces", got, total)
	}
	if got := reg.Counter("campaign_batch_underfill").Value(); got != 1 {
		t.Fatalf("campaign_batch_underfill = %d, want 1 (30 %% 4 != 0)", got)
	}
}

// TestEarlyStopCheckCounter: TVLAUntil accounts its predicate
// evaluations, and an early-stopped run flags the gauge.
func TestEarlyStopCheckCounter(t *testing.T) {
	tgt := newDPATarget(t, false, 92)
	tgt.Workers = 2
	tgt.Metrics = obs.New()
	src := rng.NewDRBG(14).Uint64
	randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
	// The unprotected target leaks hard; a generous budget early-stops.
	res, err := TVLAUntil(tgt, FixedPoint(tgt.Curve), 400, 5, 160, 158, randKey)
	if err != nil {
		t.Fatal(err)
	}
	checks := tgt.Metrics.Counter("sca_earlystop_checks").Value()
	if checks < 1 {
		t.Fatalf("sca_earlystop_checks = %d, want >= 1", checks)
	}
	if res.EarlyStopped {
		if got := tgt.Metrics.Gauge("sca_tvla_early_stopped").Value(); got != 1 {
			t.Fatalf("sca_tvla_early_stopped = %v, want 1", got)
		}
		// One check per 5 pairs past the 10-pair minimum: the stopping
		// pair count bounds the number of evaluations.
		maxChecks := int64(res.TracesPerSet/5) + 1
		if checks > maxChecks {
			t.Fatalf("checks = %d, want <= %d for %d pairs", checks, maxChecks, res.TracesPerSet)
		}
	}
}
