package sca

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/campaign"
	"medsec/internal/modn"
	"medsec/internal/rng"
	"medsec/internal/store"
	"medsec/internal/trace"
)

// The checkpoint/resume contract these tests pin: a campaign killed
// mid-run (context cancellation — the CLIs' SIGINT path) and resumed
// by a fresh process produces results bit-identical to an
// uninterrupted run, for serial (S = 1) and sharded reductions and
// across worker counts.

func ckptHeader(seed uint64) store.Header {
	return store.Header{
		Tool: "scalab", Kind: "tvla", Seed: seed, GitSHA: "testsha",
		Point: json.RawMessage(`{"fixture":"checkpoint_test"}`),
	}
}

// tvlaCkpt runs one TVLA campaign with a fresh key stream derived from
// keySeed, under the given engine shape and checkpoint config.
func tvlaCkpt(t *testing.T, seed, keySeed uint64, workers, shards, nPerSet int,
	ctx context.Context, ck *CampaignCheckpoint, progress func(done int)) (*TVLAResult, error) {
	t.Helper()
	tgt := newDPATarget(t, false, seed)
	tgt.Workers = workers
	tgt.Shards = shards
	tgt.Ctx = ctx
	tgt.Ckpt = ck
	tgt.Progress = progress
	src := rng.NewDRBG(keySeed).Uint64
	randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
	return TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
}

func sameTVLA(t *testing.T, label string, got, want *TVLAResult) {
	t.Helper()
	if got.TracesPerSet != want.TracesPerSet {
		t.Errorf("%s: %d traces/set, want %d", label, got.TracesPerSet, want.TracesPerSet)
	}
	if got.EarlyStopped != want.EarlyStopped {
		t.Errorf("%s: EarlyStopped=%v, want %v", label, got.EarlyStopped, want.EarlyStopped)
	}
	if !reflect.DeepEqual(got.TCurve, want.TCurve) {
		t.Errorf("%s: t-curve differs bit-for-bit from the uninterrupted run", label)
	}
}

// TestTVLAKillResumeMatchesUninterrupted: interrupt a TVLA campaign
// mid-run, then resume it from the checkpoint — possibly at a
// different worker count, as a fresh process would — and require the
// final result bit-identical to an uninterrupted campaign.
func TestTVLAKillResumeMatchesUninterrupted(t *testing.T) {
	const nPerSet = 14
	cases := []struct {
		name           string
		shards         int
		killW, resumeW int
		cancelAt       int
	}{
		{"serial", 1, 1, 7, 5},
		{"serial-wide-kill", 1, 7, 1, 9},
		{"sharded-1", 1, 1, 7, 9},
		{"sharded-4", 4, 7, 1, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(79)
			ref, err := tvlaCkpt(t, seed, 8, tc.resumeW, tc.shards, nPerSet, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "tvla.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck := &CampaignCheckpoint{Path: path, Every: 4, Header: ckptHeader(seed)}
			_, err = tvlaCkpt(t, seed, 8, tc.killW, tc.shards, nPerSet, ctx, ck,
				func(done int) {
					if done >= tc.cancelAt {
						cancel()
					}
				})
			if !errors.Is(err, campaign.ErrInterrupted) {
				t.Fatalf("interrupted campaign returned %v, want campaign.ErrInterrupted", err)
			}
			prev, err := store.Read(path)
			if err != nil {
				t.Fatalf("no checkpoint after interrupt: %v", err)
			}
			if prev.Header.Complete {
				t.Fatal("interrupt checkpoint marked Complete")
			}

			rck := &CampaignCheckpoint{Path: path, Every: 4, Header: ckptHeader(seed), Resume: true}
			res, err := tvlaCkpt(t, seed, 8, tc.resumeW, tc.shards, nPerSet, nil, rck, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameTVLA(t, tc.name, res, ref)

			// The completion checkpoint short-circuits a re-run: same
			// result, engine never started (Progress never fires).
			res2, err := tvlaCkpt(t, seed, 8, tc.resumeW, tc.shards, nPerSet, nil, rck,
				func(done int) { t.Errorf("engine ran on a Complete checkpoint (done=%d)", done) })
			if err != nil {
				t.Fatal(err)
			}
			sameTVLA(t, tc.name+"/short-circuit", res2, ref)
		})
	}
}

// TestTVLAUntilKillResumeMatchesUninterrupted covers the early-stop
// (serial-consumer) leg: the resumed campaign must stop at exactly the
// same pair as the uninterrupted one.
func TestTVLAUntilKillResumeMatchesUninterrupted(t *testing.T) {
	run := func(ctx context.Context, ck *CampaignCheckpoint, progress func(int)) (*TVLAResult, error) {
		tgt := newDPATarget(t, false, 80)
		tgt.Workers = 3
		tgt.Ctx = ctx
		tgt.Ckpt = ck
		tgt.Progress = progress
		src := rng.NewDRBG(9).Uint64
		randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
		return TVLAUntil(tgt, FixedPoint(tgt.Curve), 120, 5, 160, 158, randKey)
	}
	ref, err := run(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.EarlyStopped {
		t.Fatalf("fixture did not early-stop (maxT=%g)", ref.MaxT)
	}

	hdr := ckptHeader(80)
	hdr.Kind = "tvla-until"
	path := filepath.Join(t.TempDir(), "until.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &CampaignCheckpoint{Path: path, Every: 6, Header: hdr}
	cancelAt := ref.TracesPerSet // half the consumed count at the natural stop
	if _, err := run(ctx, ck, func(done int) {
		if done >= cancelAt {
			cancel()
		}
	}); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want campaign.ErrInterrupted", err)
	}

	rck := &CampaignCheckpoint{Path: path, Every: 6, Header: hdr, Resume: true}
	res, err := run(nil, rck, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTVLA(t, "until-resume", res, ref)

	// The early-stopped completion checkpoint short-circuits re-runs.
	res2, err := run(nil, rck, func(done int) { t.Errorf("engine ran on a Complete checkpoint (done=%d)", done) })
	if err != nil {
		t.Fatal(err)
	}
	sameTVLA(t, "until-short-circuit", res2, ref)
}

// TestTVLASerialCrossProcessExtend: a Complete checkpoint of a
// one-shard campaign at a smaller budget seeds a larger campaign — the
// cross-process extension case — and the extended result is
// bit-identical to a single uninterrupted run at the larger budget.
// Both rows fold one shard: the early-stop leg with a check interval
// beyond the budget (it never fires), and a full-budget TVLA at
// Target.Shards = 1; each equals TVLA at one shard.
func TestTVLASerialCrossProcessExtend(t *testing.T) {
	ref, err := tvlaCkpt(t, 79, 8, 3, 1, 14, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, kind string
		campaign   func(tgt *Target, nPerSet int, randKey func() modn.Scalar) (*TVLAResult, error)
	}{
		{"until", "tvla-until", func(tgt *Target, nPerSet int, randKey func() modn.Scalar) (*TVLAResult, error) {
			return TVLAUntil(tgt, FixedPoint(tgt.Curve), nPerSet, 1000, 160, 158, randKey)
		}},
		{"tvla-one-shard", "tvla", func(tgt *Target, nPerSet int, randKey func() modn.Scalar) (*TVLAResult, error) {
			tgt.Shards = 1
			return TVLA(tgt, FixedPoint(tgt.Curve), nPerSet, 160, 158, randKey)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := ckptHeader(79)
			hdr.Kind = tc.kind
			first := 0 // the first progress report of the latest run
			run := func(nPerSet int, ck *CampaignCheckpoint) *TVLAResult {
				tgt := newDPATarget(t, false, 79)
				tgt.Workers = 3
				tgt.Ckpt = ck
				first = 0
				tgt.Progress = func(done int) {
					if first == 0 {
						first = done
					}
				}
				src := rng.NewDRBG(8).Uint64
				res, err := tc.campaign(tgt, nPerSet, func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) })
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			path := filepath.Join(t.TempDir(), "extend.ckpt")
			run(10, &CampaignCheckpoint{Path: path, Every: 5, Header: hdr})
			res := run(14, &CampaignCheckpoint{Path: path, Every: 5, Header: hdr, Resume: true})
			if first <= 20 {
				t.Fatalf("the extension reported %d folded traces first; it must resume past the stored 20", first)
			}
			sameTVLA(t, "extend", res, ref)
		})
	}
}

// TestTVLACheckpointProvenanceMismatchRefused: resuming under a
// different seed, git SHA or design point must fail with a typed
// mismatch naming the offending field, not silently merge foreign
// statistics.
func TestTVLACheckpointProvenanceMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tvla.ckpt")
	ck := &CampaignCheckpoint{Path: path, Every: 5, Header: ckptHeader(79)}
	if _, err := tvlaCkpt(t, 79, 8, 2, 1, 10, nil, ck, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field string
		mut   func(*store.Header)
	}{
		{"seed", func(h *store.Header) { h.Seed = 123 }},
		{"git SHA", func(h *store.Header) { h.GitSHA = "othersha" }},
		{"design point", func(h *store.Header) { h.Point = json.RawMessage(`{"fixture":"drifted"}`) }},
		{"kind", func(h *store.Header) { h.Kind = "dpa" }},
	}
	for _, tc := range cases {
		hdr := ckptHeader(79)
		tc.mut(&hdr)
		rck := &CampaignCheckpoint{Path: path, Every: 5, Header: hdr, Resume: true}
		_, err := tvlaCkpt(t, 79, 8, 2, 1, 10, nil, rck, nil)
		var me *store.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("%s drift returned %v, want *store.MismatchError", tc.field, err)
		}
		if me.Field != tc.field {
			t.Errorf("mismatch named %q, want %q", me.Field, tc.field)
		}
	}
	// Shard-shape drift: a single-shard checkpoint refused by a 4-shard
	// run.
	rck := &CampaignCheckpoint{Path: path, Every: 5, Header: ckptHeader(79), Resume: true}
	tgt := newDPATarget(t, false, 79)
	tgt.Shards = 4
	tgt.Ckpt = rck
	src := rng.NewDRBG(8).Uint64
	_, err := TVLA(tgt, FixedPoint(tgt.Curve), 10, 160, 158,
		func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) })
	var me *store.MismatchError
	if !errors.As(err, &me) || me.Field != "shard count" {
		t.Fatalf("shard-shape drift returned %v, want shard-count mismatch", err)
	}
}

// TestTracesToSuccessKillResume: interrupt the CPA traces-to-success
// search mid-acquisition, resume it in a "fresh process" (new Target,
// replayed point stream) and require the same verdict and scores as an
// uninterrupted search; a Complete checkpoint then answers re-runs
// without acquiring anything.
func TestTracesToSuccessKillResume(t *testing.T) {
	sizes := []int{12, 24}
	const bits = 2
	hdr := ckptHeader(8)
	hdr.Kind = "dpa"
	run := func(ctx context.Context, ck *CampaignCheckpoint, progress func(int)) (int, *CPAResult, error) {
		tgt := newDPATarget(t, false, 8)
		tgt.Workers = 3
		tgt.Ctx = ctx
		tgt.Ckpt = ck
		tgt.Progress = progress
		return TracesToSuccess(tgt, sizes, bits, CPAOptions{}, rng.NewDRBG(9).Uint64)
	}
	refN, refRes, err := run(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dpa.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := &CampaignCheckpoint{Path: path, Header: hdr}
	// Cancel during the second extension (sizes[0] < 16 < sizes[1]), so
	// the checkpoint on disk is the size-12 boundary.
	if _, _, err := run(ctx, ck, func(done int) {
		if done >= 16 {
			cancel()
		}
	}); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("interrupted search returned %v, want campaign.ErrInterrupted", err)
	}
	prev, err := store.Read(path)
	if err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}
	if prev.Header.Watermark != sizes[0] || prev.Header.Complete {
		t.Fatalf("interrupt left watermark=%d complete=%v, want boundary %d",
			prev.Header.Watermark, prev.Header.Complete, sizes[0])
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
		t.Fatal("resumed search's CPA result differs from the uninterrupted run")
	}

	// Complete short-circuit: the stored set answers without acquiring.
	n2, res2, err := run(nil, rck, func(done int) { t.Errorf("engine ran on a Complete checkpoint (done=%d)", done) })
	if err != nil {
		t.Fatal(err)
	}
	if n2 != refN || !reflect.DeepEqual(res2.Recovered, refRes.Recovered) {
		t.Fatal("Complete-checkpoint re-evaluation drifted from the uninterrupted run")
	}
}

// TestTracesToSuccessRefusesMisshapenCheckpoint pins that a restored
// trace set must hold Campaign.Cycles-length traces. Outside a git
// checkout both runs stamp GitSHA "unknown", so the header of a
// full-window checkpoint written by an older acquisition matches; the
// search must refuse it by path and lengths rather than read its first
// samples as writeback columns.
func TestTracesToSuccessRefusesMisshapenCheckpoint(t *testing.T) {
	sizes := []int{12, 24}
	const bits = 2
	hdr := ckptHeader(8)
	hdr.Kind, hdr.GitSHA = "dpa", "unknown"
	path := filepath.Join(t.TempDir(), "dpa.ckpt")
	ck := &CampaignCheckpoint{Path: path, Header: hdr, Resume: true}

	tgt := newDPATarget(t, false, 8)
	tgt.Ckpt = ck
	camp := tgt.NewCampaign(160, 160-bits+1)
	window := camp.End - camp.Start
	var set trace.Set
	for i := 0; i < sizes[0]; i++ {
		set.Traces = append(set.Traces, trace.Trace{Samples: make([]float64, window), StartCycle: camp.Start})
	}
	blob, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := ck.campHeader(0, sizes[len(sizes)-1], 0)
	h.Watermark = sizes[0]
	if err := ck.write(h, map[string][]byte{"set": blob}); err != nil {
		t.Fatal(err)
	}

	_, _, err = TracesToSuccess(tgt, sizes, bits, CPAOptions{}, rng.NewDRBG(9).Uint64)
	if err == nil {
		t.Fatal("a full-window checkpoint seeded a campaign that records writeback cycles")
	}
	for _, want := range []string{path, fmt.Sprint(window), fmt.Sprint(len(camp.Cycles))} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q", err, want)
		}
	}
}
