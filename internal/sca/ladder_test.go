package sca

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"medsec/internal/rng"
	"medsec/internal/trace"
)

// freshCPA analyses c from scratch: a Campaign literal has no memo.
func freshCPA(t testing.TB, c *Campaign, opt CPAOptions) *CPAResult {
	t.Helper()
	lit := *c
	lit.memo = nil
	res, err := CPA(&lit, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cpaResultDiff names the first CPAResult field where got and want
// differ, comparing scores by their IEEE-754 bits; "" when none does.
func cpaResultDiff(got, want *CPAResult) string {
	switch {
	case got.FirstIter != want.FirstIter:
		return fmt.Sprintf("FirstIter %d, want %d", got.FirstIter, want.FirstIter)
	case !slices.Equal(got.Recovered, want.Recovered):
		return fmt.Sprintf("Recovered %v, want %v", got.Recovered, want.Recovered)
	case !slices.Equal(got.True, want.True):
		return fmt.Sprintf("True %v, want %v", got.True, want.True)
	case len(got.Scores) != len(want.Scores):
		return fmt.Sprintf("%d scores, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		for k := range got.Scores[i] {
			if math.Float64bits(got.Scores[i][k]) != math.Float64bits(want.Scores[i][k]) {
				return fmt.Sprintf("Scores[%d][%d] %v, want %v", i, k, got.Scores[i][k], want.Scores[i][k])
			}
		}
	}
	return ""
}

// TestCPALadderMatchesFresh holds every CPA reached through a
// campaign's memo to an analysis of the same view from scratch, field
// for field, over one campaign grown through ladderSizes. At each size
// it analyses the new view (resuming the previous size's sums), the
// same view again, and a view shorter than the memo's. On the same
// campaign it interleaves the centered-product mode, toggles
// KnownMasks and a longer KnownPrefix, each on a view longer than the
// memo's so that reused sums would show, and finally replaces the
// campaign's Set with one whose samples differ. The secret-randomness
// ladder of target 301 flips its level-0 decision from 300 to 450
// traces and keeps all six decisions from 50 to 200, which the test
// asserts so that both the replayed and the fully resumed paths run.
func TestCPALadderMatchesFresh(t *testing.T) {
	secret := CPAOptions{Bits: 6}
	for _, workers := range []int{1, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tgt := newDPATarget(t, true, 301)
			tgt.Workers = workers
			camp := tgt.NewCampaign(160, 155)
			points := rng.NewDRBG(31).Uint64
			prefix := append(DefaultKnownPrefix(), tgt.Key.Bit(160))
			check := func(what string, view *Campaign, opt CPAOptions) *CPAResult {
				t.Helper()
				got, err := CPA(view, opt)
				if err != nil {
					t.Fatal(err)
				}
				if d := cpaResultDiff(got, freshCPA(t, view, opt)); d != "" {
					t.Fatalf("%s at %d traces: %s", what, view.Set.Len(), d)
				}
				return got
			}
			var prev []uint
			flipped, kept := false, false
			for _, n := range ladderSizes {
				if err := tgt.ExtendCampaign(camp, n, points); err != nil {
					t.Fatal(err)
				}
				switch n {
				case 150:
					check("centered-product", camp.Prefix(n), CPAOptions{Bits: 6, Preprocess: PreprocessCenteredProduct})
				case 700:
					check("known masks", camp.Prefix(n), CPAOptions{Bits: 6, KnownMasks: true})
				}
				res := check("ladder", camp.Prefix(n), secret)
				if prev != nil {
					flipped = flipped || prev[0] != res.Recovered[0]
					kept = kept || slices.Equal(prev, res.Recovered)
				}
				prev = res.Recovered
				check("same view again", camp.Prefix(n), secret)
				check("shorter view", camp.Prefix(n/2), secret)
			}
			if !flipped || !kept {
				t.Fatalf("the ladder flipped level 0: %v, kept every decision: %v; both paths must run", flipped, kept)
			}
			if err := tgt.ExtendCampaign(camp, 800, points); err != nil {
				t.Fatal(err)
			}
			check("known prefix", camp.Prefix(800), CPAOptions{Bits: 5, KnownPrefix: prefix})
			check("secret after known prefix", camp.Prefix(800), secret)

			// A replaced Set: each sample negated, in new storage, so
			// any sum resumed from the memo would be wrong.
			if err := tgt.ExtendCampaign(camp, 900, points); err != nil {
				t.Fatal(err)
			}
			neg := &trace.Set{}
			for _, tr := range camp.Set.Traces {
				s := make([]float64, len(tr.Samples))
				for i, v := range tr.Samples {
					s[i] = -v
				}
				neg.Traces = append(neg.Traces, trace.Trace{Samples: s, StartCycle: tr.StartCycle})
			}
			camp.Set = neg
			check("replaced set", camp.Prefix(900), secret)
		})
	}
}

// TestCPADeterministicAcrossConcurrentViews runs the CPA on two Prefix
// views of one growing campaign from two goroutines, so both read and
// write the campaign's memo concurrently, and holds each result to an
// analysis of the same view from scratch, at Workers 1 and 7.
func TestCPADeterministicAcrossConcurrentViews(t *testing.T) {
	opt := CPAOptions{Bits: 6}
	for _, workers := range []int{1, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tgt := newDPATarget(t, true, 301)
			tgt.Workers = workers
			camp := tgt.NewCampaign(160, 155)
			points := rng.NewDRBG(31).Uint64
			for _, n := range []int{50, 100, 200, 300} {
				if err := tgt.ExtendCampaign(camp, n, points); err != nil {
					t.Fatal(err)
				}
				views := [2]*Campaign{camp.Prefix(n * 2 / 3), camp.Prefix(n)}
				var got [2]*CPAResult
				var errs [2]error
				var wg sync.WaitGroup
				for k, v := range views {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[k], errs[k] = CPA(v, opt)
					}()
				}
				wg.Wait()
				for k, v := range views {
					if errs[k] != nil {
						t.Fatal(errs[k])
					}
					if d := cpaResultDiff(got[k], freshCPA(t, v, opt)); d != "" {
						t.Fatalf("view of %d traces: %s", v.Set.Len(), d)
					}
				}
			}
		})
	}
}
