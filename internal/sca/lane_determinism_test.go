package sca

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"medsec/internal/campaign"
	"medsec/internal/modn"
	"medsec/internal/rng"
	"medsec/internal/store"
)

// Lane-batch determinism pins: Target.Lanes selects how many traces
// one interpreter pass retires, and nothing else. Every campaign
// statistic must be bit-identical across lane counts — including lane
// counts that do not divide the trace count, batches that mix fixed
// and random keys (TVLA's interleaving), every worker/shard shape, and
// a campaign killed under one lane count and resumed under another.

var determinismLanes = []int{1, 4, 8}

func tvlaLanes(t *testing.T, workers, shards, lanes int) *TVLAResult {
	t.Helper()
	tgt := newDPATarget(t, false, 91)
	tgt.Workers = workers
	tgt.Shards = shards
	tgt.Lanes = lanes
	src := rng.NewDRBG(14).Uint64
	randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
	res, err := TVLA(tgt, FixedPoint(tgt.Curve), 20, 159, 157, randKey)
	if err != nil {
		t.Fatalf("workers=%d shards=%d lanes=%d: %v", workers, shards, lanes, err)
	}
	return res
}

// TestTVLALaneDeterminism pins the tentpole contract over the full
// engine-shape grid: lanes x workers x shards, all bit-identical to
// the width-1 single-worker run at the same shard count. The TVLA
// job stream interleaves fixed and random keys, so batches mix both.
func TestTVLALaneDeterminism(t *testing.T) {
	for _, shards := range []int{1, 4} {
		base := tvlaLanes(t, 1, shards, 0)
		for _, lanes := range determinismLanes {
			for _, w := range determinismWorkers {
				res := tvlaLanes(t, w, shards, lanes)
				if res.TracesPerSet != base.TracesPerSet {
					t.Errorf("shards=%d lanes=%d workers=%d: %d traces/set, serial %d",
						shards, lanes, w, res.TracesPerSet, base.TracesPerSet)
				}
				if !reflect.DeepEqual(res.TCurve, base.TCurve) {
					t.Errorf("shards=%d lanes=%d workers=%d: t-curve differs bit-for-bit from the width-1 path",
						shards, lanes, w)
				}
			}
		}
	}
}

// TestCampaignLaneDeterminism pins lane batching over per-trace random
// base points (quiet-only plan, per-lane operand constants): the
// retained trace set and point stream are bit-identical to the
// width-1 path, for the serial fold and the positional sharded
// reduction.
func TestCampaignLaneDeterminism(t *testing.T) {
	acquire := func(shards, lanes int) *Campaign {
		tgt := newDPATarget(t, false, 95)
		tgt.Workers = 3
		tgt.Shards = shards
		tgt.Lanes = lanes
		c, err := tgt.AcquireCampaign(30, 160, 157, rng.NewDRBG(31).Uint64)
		if err != nil {
			t.Fatalf("shards=%d lanes=%d: %v", shards, lanes, err)
		}
		return c
	}
	for _, shards := range []int{1, 4} {
		base := acquire(shards, 0)
		want := campaignFingerprint(base)
		for _, lanes := range determinismLanes[1:] {
			c := acquire(shards, lanes)
			if !reflect.DeepEqual(campaignFingerprint(c), want) {
				t.Errorf("shards=%d lanes=%d: campaign traces differ from the width-1 path", shards, lanes)
			}
			if !reflect.DeepEqual(c.Points, base.Points) {
				t.Errorf("shards=%d lanes=%d: campaign points differ from the width-1 path", shards, lanes)
			}
		}
	}
}

// TestTVLAEarlyStopLaneDeterminism pins the early-stop leg: the
// stopping pair is decided per consumed sample, so a lane-batched
// campaign must stop at exactly the serial path's pair even when the
// stop lands mid-batch.
func TestTVLAEarlyStopLaneDeterminism(t *testing.T) {
	run := func(lanes int) *TVLAResult {
		tgt := newDPATarget(t, false, 80)
		tgt.Workers = 3
		tgt.Lanes = lanes
		src := rng.NewDRBG(9).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		res, err := TVLAUntil(tgt, FixedPoint(tgt.Curve), 120, 5, 160, 158, randKey)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		return res
	}
	base := run(0)
	if !base.EarlyStopped {
		t.Fatalf("fixture did not early-stop (maxT=%g)", base.MaxT)
	}
	for _, lanes := range determinismLanes {
		res := run(lanes)
		if res.TracesPerSet != base.TracesPerSet {
			t.Errorf("lanes=%d: stopped at %d traces/set, serial stopped at %d", lanes, res.TracesPerSet, base.TracesPerSet)
		}
		if !reflect.DeepEqual(res.TCurve, base.TCurve) {
			t.Errorf("lanes=%d: early-stopped t-curve differs from the serial path", lanes)
		}
	}
}

// TestSPAProfiledLaneDeterminism pins a sum reduction (order-sensitive
// float fold) across lane counts.
func TestSPAProfiledLaneDeterminism(t *testing.T) {
	run := func(lanes int) *SPAResult {
		tgt := newDPATarget(t, false, 81)
		tgt.Workers = 2
		tgt.Lanes = lanes
		p := tgt.Curve.RandomPoint(rng.NewDRBG(10).Uint64)
		res, err := SPAProfiled(tgt, p, 12)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		return res
	}
	base := run(0)
	for _, lanes := range determinismLanes[1:] {
		res := run(lanes)
		if !reflect.DeepEqual(res.Features, base.Features) {
			t.Errorf("lanes=%d: averaged SPA features differ from the serial path", lanes)
		}
	}
}

// TestTVLALaneKillResume pins checkpoint/resume under lane variation: a
// campaign killed mid-run at one lane count and resumed at another —
// batch boundaries shift arbitrarily across the cut — must be
// bit-identical to an uninterrupted serial run, for both engine legs.
func TestTVLALaneKillResume(t *testing.T) {
	const nPerSet = 14
	cases := []struct {
		name                string
		shards              int
		killLanes, resLanes int
		killW, resumeW      int
		cancelAt            int
	}{
		{"serial-lanes4-to-1", 1, 4, 1, 3, 2, 9},
		{"serial-lanes1-to-8", 1, 1, 8, 1, 7, 9},
		{"sharded4-lanes8-to-4", 4, 8, 4, 7, 2, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(79)
			ref, err := tvlaCkpt(t, seed, 8, 1, tc.shards, nPerSet, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			run := func(lanes, workers int, ctx context.Context, ck *CampaignCheckpoint, progress func(int)) (*TVLAResult, error) {
				tgt := newDPATarget(t, false, seed)
				tgt.Workers = workers
				tgt.Shards = tc.shards
				tgt.Lanes = lanes
				tgt.Ctx = ctx
				tgt.Ckpt = ck
				tgt.Progress = progress
				src := rng.NewDRBG(8).Uint64
				randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
				return TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
			}

			path := filepath.Join(t.TempDir(), "tvla.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck := &CampaignCheckpoint{Path: path, Every: 4, Header: ckptHeader(seed)}
			_, err = run(tc.killLanes, tc.killW, ctx, ck, func(done int) {
				if done >= tc.cancelAt {
					cancel()
				}
			})
			if !errors.Is(err, campaign.ErrInterrupted) {
				t.Fatalf("interrupted campaign returned %v, want campaign.ErrInterrupted", err)
			}
			if _, err := store.Read(path); err != nil {
				t.Fatalf("no checkpoint after interrupt: %v", err)
			}

			rck := &CampaignCheckpoint{Path: path, Every: 4, Header: ckptHeader(seed), Resume: true}
			res, err := run(tc.resLanes, tc.resumeW, nil, rck, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameTVLA(t, tc.name, res, ref)
		})
	}
}
