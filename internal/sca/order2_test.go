package sca

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/rng"
)

// maskedLab is the power configuration of the masked-scenario
// evaluations: the protected chip at its intrinsic noise floor
// (NoiseSigma 0.03, not the oscilloscope-limited LabNoiseSigma) with
// the residual layout imbalance zeroed. Both choices isolate the
// question the masking countermeasure answers — datapath leakage:
//
//   - at the scope's noise floor the per-sample noise variance (~80²
//     toggle units) buries the mask-induced variance (~60 units) that
//     the second-order statistic estimates, so neither order would see
//     anything and the comparison would be vacuous;
//   - the residual CSWAP-select imbalance is a *control-path* leak that
//     Boolean masking of the datapath cannot cover (and at the chip
//     noise floor it convicts the first order on its own) — it is its
//     own countermeasure axis (power.Config.ResidualImbalance),
//     evaluated by the SPA/leakage-map tests.
func maskedLab(seed uint64) power.Config {
	cfg := power.ProtectedChip(seed)
	cfg.ResidualImbalance = 0
	return cfg
}

// newMaskedTarget builds the masked-scenario device: non-RPC x-only
// ladder microcode (the white-box datapath the CPA tests attack) on
// the maskedLab chip, with first-order Boolean masking switched by
// masked.
func newMaskedTarget(t *testing.T, seed uint64, masked bool) *Target {
	t.Helper()
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(seed).Uint64)
	tgt := NewTarget(curve, key,
		coproc.ProgramOptions{RPC: false, XOnly: true},
		coproc.DefaultTiming(), maskedLab(seed), seed+7777)
	tgt.Masked = masked
	tgt.Lanes = 8
	return tgt
}

func algKeyStream(curve *ec.Curve, seed uint64) func() modn.Scalar {
	src := rng.NewDRBG(seed).Uint64
	return func() modn.Scalar { return AlgorithmOneScalar(curve, src) }
}

// TestMaskedSecondOrderSeparation is the headline statistical claim of
// the masking countermeasure, pinned end to end on the campaign
// engine: on the masked target the first-order fixed-vs-random t-test
// stays below the 4.5 evidence threshold over a 2000-trace-per-set
// budget, while the second-order (centered-product) test convicts the
// same device — and the unmasked baseline is convicted by the first
// order immediately.
func TestMaskedSecondOrderSeparation(t *testing.T) {
	const nPerSet = 2000
	p := FixedPoint(ec.K163())

	// Masked, first order: flat. Full budget — flatness is a statement
	// about the whole campaign, not an early-stopped prefix.
	tgt := newMaskedTarget(t, 900, true)
	r1, err := TVLA(tgt, p, nPerSet, 160, 158, algKeyStream(tgt.Curve, 77))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Order != 1 {
		t.Fatalf("TVLA reported order %d", r1.Order)
	}
	if r1.MaxT >= TVLAThreshold {
		t.Fatalf("masked first-order TVLA convicts: max|t|=%.2f at %d traces/set",
			r1.MaxT, r1.TracesPerSet)
	}

	// Masked, second order: convicts (early-stop leg — the conviction
	// threshold is crossed well before the budget).
	tgt = newMaskedTarget(t, 900, true)
	r2, err := TVLA2Until(tgt, p, nPerSet, 100, 160, 158, algKeyStream(tgt.Curve, 77))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Order != 2 {
		t.Fatalf("TVLA2 reported order %d", r2.Order)
	}
	if r2.MaxT <= TVLAThreshold {
		t.Fatalf("masked second-order TVLA stays flat: max|t|=%.2f at %d traces/set",
			r2.MaxT, r2.TracesPerSet)
	}

	// Unmasked baseline, first order: convicted in tens of pairs.
	tgt = newMaskedTarget(t, 900, false)
	u1, err := TVLAUntil(tgt, p, nPerSet, 25, 160, 158, algKeyStream(tgt.Curve, 77))
	if err != nil {
		t.Fatal(err)
	}
	if u1.MaxT <= TVLAThreshold {
		t.Fatalf("unmasked first-order TVLA stays flat: max|t|=%.2f", u1.MaxT)
	}
}

// TestMaskedCenteredProductCPA: against the masked target the raw
// first-order CPA degenerates to guessing, while the centered-product
// (second-order) CPA with Hamming-distance predictions recovers every
// targeted bit from the same 500-trace campaign.
func TestMaskedCenteredProductCPA(t *testing.T) {
	tgt := newMaskedTarget(t, 901, true)
	camp, err := tgt.AcquireCampaign(500, 160, 157, rng.NewDRBG(5).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	first, err := CPA(camp, CPAOptions{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	second, err := CPA(camp, CPAOptions{Bits: 4, Preprocess: PreprocessCenteredProduct})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Success() {
		t.Fatalf("centered-product CPA failed on the masked target: recovered %v, true %v, scores %v",
			second.Recovered, second.True, second.Scores)
	}
	if first.Success() {
		t.Fatalf("raw first-order CPA recovered a masked key (scores %v) — masking is not masking",
			first.Scores)
	}
}

func TestCPARejectsUnknownPreprocess(t *testing.T) {
	tgt := newMaskedTarget(t, 902, true)
	camp, err := tgt.AcquireCampaign(4, 160, 159, rng.NewDRBG(6).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CPA(camp, CPAOptions{Bits: 1, Preprocess: "fourier"})
	if err == nil || !strings.Contains(err.Error(), "fourier") {
		t.Fatalf("unknown preprocess accepted (err=%v)", err)
	}
}

// TestMaskedTVLADeterminismMatrix pins the bit-identical contract on
// the masked acquisition path for both statistical orders: at a fixed
// shard count, every worker-count × lane-count combination reproduces
// the reference t-curve byte for byte, and the quiet-prologue plan
// matches the full evented pipeline.
func TestMaskedTVLADeterminismMatrix(t *testing.T) {
	const nPerSet = 25
	run := func(order, workers, shards, lanes int, noSkip bool) *TVLAResult {
		t.Helper()
		tgt := newMaskedTarget(t, 903, true)
		tgt.Workers = workers
		tgt.Shards = shards
		tgt.Lanes = lanes
		tgt.noPrologueSkip = noSkip
		randKey := algKeyStream(tgt.Curve, 11)
		var res *TVLAResult
		var err error
		if order == 1 {
			res, err = TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
		} else {
			res, err = TVLA2(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, order := range []int{1, 2} {
		for _, shards := range []int{1, 4} {
			ref := run(order, 1, shards, 1, false)
			for _, workers := range []int{2, 7} {
				for _, lanes := range []int{1, 4, 8} {
					got := run(order, workers, shards, lanes, false)
					if !reflect.DeepEqual(got.TCurve, ref.TCurve) {
						t.Errorf("order=%d shards=%d: workers=%d lanes=%d t-curve differs from workers=1 lanes=1",
							order, shards, workers, lanes)
					}
				}
			}
			// The quiet-prologue plan must reproduce the full evented
			// pipeline bit for bit on the masked path too (the quiet
			// prefix replays each trace's mask draws).
			noskip := run(order, 2, shards, 4, true)
			if !reflect.DeepEqual(noskip.TCurve, ref.TCurve) {
				t.Errorf("order=%d shards=%d: full-pipeline t-curve differs — masked quiet prologue drifts", order, shards)
			}
		}
	}
}

// TestMaskedCPADeterminismMatrix: the masked retained-set campaign and
// both CPA preprocessing modes are byte-identical across worker and
// lane counts.
func TestMaskedCPADeterminismMatrix(t *testing.T) {
	run := func(workers, lanes int) (*CPAResult, *CPAResult) {
		t.Helper()
		tgt := newMaskedTarget(t, 904, true)
		tgt.Workers = workers
		tgt.Lanes = lanes
		camp, err := tgt.AcquireCampaign(60, 160, 158, rng.NewDRBG(12).Uint64)
		if err != nil {
			t.Fatal(err)
		}
		first, err := CPA(camp, CPAOptions{Bits: 3})
		if err != nil {
			t.Fatal(err)
		}
		second, err := CPA(camp, CPAOptions{Bits: 3, Preprocess: PreprocessCenteredProduct})
		if err != nil {
			t.Fatal(err)
		}
		return first, second
	}
	ref1, ref2 := run(1, 1)
	for _, workers := range []int{2, 7} {
		for _, lanes := range []int{1, 4, 8} {
			got1, got2 := run(workers, lanes)
			if !reflect.DeepEqual(got1.Scores, ref1.Scores) || !reflect.DeepEqual(got1.Recovered, ref1.Recovered) {
				t.Errorf("workers=%d lanes=%d: first-order CPA differs from serial reference", workers, lanes)
			}
			if !reflect.DeepEqual(got2.Scores, ref2.Scores) || !reflect.DeepEqual(got2.Recovered, ref2.Recovered) {
				t.Errorf("workers=%d lanes=%d: centered-product CPA differs from serial reference", workers, lanes)
			}
		}
	}
}

// TestMaskedTVLA2KillResume: interrupt a masked second-order campaign
// mid-run and resume it from the checkpoint — at a different worker
// count, as a fresh process would — for both the serial and sharded
// engine legs; the result must be bit-identical to an uninterrupted
// run, and the welch2 blob namespace must reject a first-order
// checkpoint.
func TestMaskedTVLA2KillResume(t *testing.T) {
	const nPerSet = 14
	hdr := ckptHeader(905)
	hdr.Kind = "tvla2"
	run := func(workers, shards int, ctx context.Context, ck *CampaignCheckpoint, progress func(int)) (*TVLAResult, error) {
		tgt := newMaskedTarget(t, 905, true)
		tgt.Workers = workers
		tgt.Shards = shards
		tgt.Lanes = 4
		tgt.Ctx = ctx
		tgt.Ckpt = ck
		tgt.Progress = progress
		return TVLA2(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, algKeyStream(tgt.Curve, 13))
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"sharded-4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := run(7, tc.shards, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "tvla2.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck := &CampaignCheckpoint{Path: path, Every: 4, Header: hdr}
			if _, err := run(1, tc.shards, ctx, ck, func(done int) {
				if done >= 9 {
					cancel()
				}
			}); !errors.Is(err, campaign.ErrInterrupted) {
				t.Fatalf("interrupted campaign returned %v, want campaign.ErrInterrupted", err)
			}
			rck := &CampaignCheckpoint{Path: path, Every: 4, Header: hdr, Resume: true}
			res, err := run(7, tc.shards, nil, rck, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameTVLA(t, tc.name, res, ref)
		})
	}

	// Cross-order checkpoint refusal: a first-order checkpoint under the
	// same header must not seed a second-order campaign — the welch2
	// blob is absent and the resume fails loudly.
	path := filepath.Join(t.TempDir(), "order1.ckpt")
	ck := &CampaignCheckpoint{Path: path, Every: 4, Header: hdr}
	tgt := newMaskedTarget(t, 905, true)
	tgt.Shards = 1
	tgt.Ckpt = ck
	if _, err := TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, algKeyStream(tgt.Curve, 13)); err != nil {
		t.Fatal(err)
	}
	rck := &CampaignCheckpoint{Path: path, Every: 4, Header: hdr, Resume: true}
	if _, err := run(1, 1, nil, rck, nil); err == nil || !strings.Contains(err.Error(), "welch2") {
		t.Fatalf("second-order campaign resumed from a first-order checkpoint (err=%v)", err)
	}
}

// TestMaskedTracesToSuccessKillResume exercises the retained-set
// checkpoint flow on the masked path with the centered-product attack:
// the resumed search reproduces the uninterrupted verdict bit for bit.
func TestMaskedTracesToSuccessKillResume(t *testing.T) {
	sizes := []int{24, 64}
	const bits = 2
	hdr := ckptHeader(906)
	hdr.Kind = "dpa2"
	run := func(ctx context.Context, ck *CampaignCheckpoint, progress func(int)) (int, *CPAResult, error) {
		tgt := newMaskedTarget(t, 906, true)
		tgt.Workers = 3
		tgt.Ctx = ctx
		tgt.Ckpt = ck
		tgt.Progress = progress
		return TracesToSuccess(tgt, sizes, bits,
			CPAOptions{Preprocess: PreprocessCenteredProduct}, rng.NewDRBG(14).Uint64)
	}
	refN, refRes, err := run(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dpa2.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &CampaignCheckpoint{Path: path, Header: hdr}
	// Cancel during the second extension (sizes[0] < 32 < sizes[1]), so
	// the checkpoint on disk is the first size boundary.
	if _, _, err := run(ctx, ck, func(done int) {
		if done >= 32 {
			cancel()
		}
	}); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("interrupted search returned %v, want campaign.ErrInterrupted", err)
	}
	rck := &CampaignCheckpoint{Path: path, Header: hdr, Resume: true}
	n, res, err := run(nil, rck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != refN {
		t.Fatalf("resumed search answered %d, uninterrupted answered %d", n, refN)
	}
	if !reflect.DeepEqual(res.Recovered, refRes.Recovered) || !reflect.DeepEqual(res.Scores, refRes.Scores) {
		t.Fatal("resumed masked search's CPA result differs from the uninterrupted run")
	}
}
