package sca

import (
	"reflect"
	"testing"

	"medsec/internal/modn"
	"medsec/internal/rng"
)

// The campaign engine's determinism contract (internal/campaign): a
// campaign is bit-identical for any worker count. These tests pin that
// contract at the attack level — same recovered bits, same t-curves,
// same trace counts whether acquisition ran serially or fanned out.

var determinismWorkers = []int{1, 2, 7}

// campaignFingerprint flattens a campaign into a comparable value.
func campaignFingerprint(c *Campaign) [][]float64 {
	out := make([][]float64, c.Set.Len())
	for i := range out {
		out[i] = c.Set.Traces[i].Samples
	}
	return out
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	acquire := func(workers int) *Campaign {
		tgt := newDPATarget(t, false, 77)
		tgt.Workers = workers
		camp, err := tgt.AcquireCampaign(40, 160, 157, rng.NewDRBG(3).Uint64)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return camp
	}
	base := acquire(1)
	want := campaignFingerprint(base)
	for _, w := range determinismWorkers[1:] {
		camp := acquire(w)
		if got := campaignFingerprint(camp); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: campaign traces differ from serial acquisition", w)
		}
		if !reflect.DeepEqual(camp.Points, base.Points) {
			t.Errorf("workers=%d: campaign points differ from serial acquisition", w)
		}
	}
}

func TestCPADeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *CPAResult {
		tgt := newDPATarget(t, false, 78)
		tgt.Workers = workers
		camp, err := tgt.AcquireCampaign(80, 160, 156, rng.NewDRBG(5).Uint64)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := CPA(camp, CPAOptions{Bits: 5})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, w := range determinismWorkers[1:] {
		res := run(w)
		if !reflect.DeepEqual(res.Recovered, base.Recovered) {
			t.Errorf("workers=%d: recovered bits differ: %v vs %v", w, res.Recovered, base.Recovered)
		}
		if !reflect.DeepEqual(res.Scores, base.Scores) {
			t.Errorf("workers=%d: per-bit scores differ from serial run", w)
		}
	}
}

func TestTVLADeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *TVLAResult {
		tgt := newDPATarget(t, false, 79)
		tgt.Workers = workers
		src := rng.NewDRBG(8).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		res, err := TVLA(tgt, FixedPoint(tgt.Curve), 25, 160, 158, randKey)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, w := range determinismWorkers[1:] {
		res := run(w)
		if res.TracesPerSet != base.TracesPerSet {
			t.Errorf("workers=%d: trace count %d, serial %d", w, res.TracesPerSet, base.TracesPerSet)
		}
		if !reflect.DeepEqual(res.TCurve, base.TCurve) {
			t.Errorf("workers=%d: t-curve differs bit-for-bit from serial run", w)
		}
	}
}

func TestTVLAEarlyStopDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *TVLAResult {
		tgt := newDPATarget(t, false, 80)
		tgt.Workers = workers
		src := rng.NewDRBG(9).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		res, err := TVLAUntil(tgt, FixedPoint(tgt.Curve), 120, 5, 160, 158, randKey)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	if !base.EarlyStopped {
		t.Fatalf("expected the unprotected-configuration TVLA to early-stop (got %d traces/set, maxT=%g)",
			base.TracesPerSet, base.MaxT)
	}
	for _, w := range determinismWorkers[1:] {
		res := run(w)
		if res.TracesPerSet != base.TracesPerSet {
			t.Errorf("workers=%d: stopped at %d traces/set, serial stopped at %d", w, res.TracesPerSet, base.TracesPerSet)
		}
		if !reflect.DeepEqual(res.TCurve, base.TCurve) {
			t.Errorf("workers=%d: early-stopped t-curve differs from serial run", w)
		}
	}
}

func TestSPAProfiledDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *SPAResult {
		tgt := newDPATarget(t, false, 81)
		tgt.Workers = workers
		p := tgt.Curve.RandomPoint(rng.NewDRBG(10).Uint64)
		res, err := SPAProfiled(tgt, p, 12)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, w := range determinismWorkers[1:] {
		res := run(w)
		if !reflect.DeepEqual(res.Features, base.Features) {
			t.Errorf("workers=%d: averaged SPA features differ from serial run", w)
		}
		if !reflect.DeepEqual(res.Recovered, base.Recovered) {
			t.Errorf("workers=%d: SPA classification differs from serial run", w)
		}
	}
}
