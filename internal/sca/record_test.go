package sca

import (
	"reflect"
	"testing"

	"medsec/internal/rng"
)

// TestCampaignRecordedMatchesFullWindow pins a CPA campaign's record
// list against the full evented pipeline: a campaign acquired only at
// its Cycles holds, sample for sample, what a full-window acquisition
// from cycle 0 (the noPrologueSkip oracle) records at those cycles,
// and the CPA returns the same result on both — on the RPC, non-RPC
// and Boolean-masked targets.
func TestCampaignRecordedMatchesFullWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *Target
		opt    CPAOptions
	}{
		{"rpc", func(t *testing.T) *Target { return newDPATarget(t, true, 401) },
			CPAOptions{Bits: 3, KnownMasks: true}},
		{"no-rpc", func(t *testing.T) *Target { return newDPATarget(t, false, 402) },
			CPAOptions{Bits: 3}},
		{"masked", func(t *testing.T) *Target { return newMaskedTarget(t, 403, true) },
			CPAOptions{Bits: 3, Preprocess: PreprocessCenteredProduct}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acquire := func(full bool) *Campaign {
				tgt := tc.target(t)
				tgt.noPrologueSkip = full
				c, err := tgt.AcquireCampaign(60, 160, 158, rng.NewDRBG(41).Uint64)
				if err != nil {
					t.Fatalf("full=%v: %v", full, err)
				}
				return c
			}
			rec, full := acquire(false), acquire(true)
			if len(rec.Cycles) != 3*mirrorWrites || rec.Set.SampleLen() != len(rec.Cycles) {
				t.Fatalf("campaign records %d cycles in %d-sample traces, want %d", len(rec.Cycles),
					rec.Set.SampleLen(), 3*mirrorWrites)
			}
			if !reflect.DeepEqual(campaignFingerprint(rec), campaignFingerprint(full)) {
				t.Fatal("recorded samples differ from the full-window acquisition's at the same cycles")
			}
			want, err := CPA(full, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CPA(rec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CPA on the recorded campaign %+v, on the full-window one %+v", got, want)
			}
		})
	}
}
