package trace

import (
	"math"
	"testing"
)

// Merge property tests: splitting a stream into contiguous segments in
// ANY way, folding each segment into its own accumulator, and merging
// the per-segment accumulators in segment order must agree with the
// single serial fold to 1e-12 *relative* accuracy — for random,
// constant and huge-dynamic-range streams, on OnlineStats and
// OnlineWelch (stream2_test.go holds OnlineMoments and OnlineWelch2 to
// the same property).
// This is the contract the sharded campaign reduction
// (campaign.Run) leans on.

// closeRelSlices compares with tolerance 1e-12 · max(1, |a|, |b|) per
// element — the absolute streamTol would be meaningless for the
// huge-dynamic-range streams whose moments are ~1e18.
func closeRelSlices(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		tol := streamTol * math.Max(1, math.Max(math.Abs(got[i]), math.Abs(want[i])))
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s[%d]: merged %.17g vs serial %.17g (diff %g, tol %g)",
				name, i, got[i], want[i], got[i]-want[i], tol)
		}
	}
}

// mergeStream builds n traces of m samples in one of three regimes:
// "random" uniform in [-1, 1); "constant" all equal (zero variance —
// the merge must not manufacture variance out of rounding); "huge"
// alternating magnitudes ~1e9 and ~1e-9 (18 orders of dynamic range —
// the adversarial case for moment combination).
func mergeStream(kind string, n, m int, seed uint64) [][]float64 {
	x := xorshift64(seed)
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, m)
		for j := range s {
			switch kind {
			case "constant":
				s[j] = 3.25
			case "huge":
				v := x.float() + 0.5
				if (i+j)%2 == 0 {
					s[j] = v * 1e9
				} else {
					s[j] = v * 1e-9
				}
			default:
				s[j] = x.float()*2 - 1
			}
		}
		out[i] = s
	}
	return out
}

// mergeSplits enumerates contiguous segmentations of n items: the
// trivial one, a maximally unbalanced one, halves, all-singletons and
// rough thirds — "split any way" in practice.
func mergeSplits(n int) [][]int {
	sp := [][]int{{n}}
	if n > 1 {
		sp = append(sp, []int{1, n - 1}, []int{n / 2, n - n/2})
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		sp = append(sp, ones)
	}
	if n > 3 {
		sp = append(sp, []int{n / 3, n / 3, n - 2*(n/3)})
	}
	return sp
}

var mergeShapes = []struct{ n, m int }{
	{1, 5}, {2, 3}, {7, 4}, {40, 16},
}

var mergeKinds = []string{"random", "constant", "huge"}

func TestOnlineStatsMergeDeterminismMatchesSerialFold(t *testing.T) {
	for _, kind := range mergeKinds {
		for _, sh := range mergeShapes {
			data := mergeStream(kind, sh.n, sh.m, 0x5eed1)
			serial := NewOnlineStats()
			for _, s := range data {
				if err := serial.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			wantMean, _ := serial.Mean()
			wantVar, _ := serial.Variance()
			for _, split := range mergeSplits(sh.n) {
				merged := NewOnlineStats()
				lo := 0
				for _, seg := range split {
					part := NewOnlineStats()
					for _, s := range data[lo : lo+seg] {
						if err := part.Add(s); err != nil {
							t.Fatal(err)
						}
					}
					lo += seg
					if err := merged.Merge(part); err != nil {
						t.Fatal(err)
					}
				}
				if merged.N() != serial.N() {
					t.Fatalf("%s %dx%d split %v: N %d != %d", kind, sh.n, sh.m, split, merged.N(), serial.N())
				}
				gotMean, _ := merged.Mean()
				gotVar, _ := merged.Variance()
				closeRelSlices(t, kind+" mean", gotMean, wantMean)
				closeRelSlices(t, kind+" variance", gotVar, wantVar)
			}
		}
	}
}

func TestOnlineWelchMergeDeterminismMatchesSerialFold(t *testing.T) {
	for _, kind := range mergeKinds {
		for _, sh := range mergeShapes {
			n := 2 * sh.n // need both populations
			data := mergeStream(kind, n, sh.m, 0x5eed2)
			serial := NewOnlineWelch()
			add := func(w *OnlineWelch, idx int) error {
				if idx%2 == 0 {
					return w.AddA(data[idx])
				}
				return w.AddB(data[idx])
			}
			for i := range data {
				if err := add(serial, i); err != nil {
					t.Fatal(err)
				}
			}
			want, err := serial.T()
			if err != nil {
				t.Fatal(err)
			}
			for _, split := range mergeSplits(n) {
				merged := NewOnlineWelch()
				lo := 0
				for _, seg := range split {
					part := NewOnlineWelch()
					for i := lo; i < lo+seg; i++ {
						if err := add(part, i); err != nil {
							t.Fatal(err)
						}
					}
					lo += seg
					if err := merged.Merge(part); err != nil {
						t.Fatal(err)
					}
				}
				got, err := merged.T()
				if err != nil {
					t.Fatal(err)
				}
				closeRelSlices(t, kind+" welch t", got, want)
			}
		}
	}
}

// TestMergeAfterCodecRoundTripMatchesSerialFold is the checkpoint
// variant of the split-any-way property: fold each segment, encode →
// decode the per-segment accumulator (the disk round trip a resumed
// campaign performs), then merge. The result must match the in-memory
// merge bit for bit — the codec is lossless — and therefore the
// serial fold to the same 1e-12 the in-memory property pins, for both
// accumulators and all three stream regimes.
func TestMergeAfterCodecRoundTripMatchesSerialFold(t *testing.T) {
	for _, kind := range mergeKinds {
		for _, sh := range mergeShapes {
			if sh.n < 3 {
				continue // Welch's t needs both populations populated
			}
			data := mergeStream(kind, sh.n, sh.m, 0x5eed7)

			serialStats, serialWelch := NewOnlineStats(), NewOnlineWelch()
			for i, s := range data {
				if err := serialStats.Add(s); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					serialWelch.AddA(s)
				} else {
					serialWelch.AddB(s)
				}
			}

			for _, split := range mergeSplits(sh.n) {
				mStats, mWelch := NewOnlineStats(), NewOnlineWelch()
				lo := 0
				for _, seg := range split {
					pStats, pWelch := NewOnlineStats(), NewOnlineWelch()
					for i := lo; i < lo+seg; i++ {
						pStats.Add(data[i])
						if i%2 == 0 {
							pWelch.AddA(data[i])
						} else {
							pWelch.AddB(data[i])
						}
					}
					lo += seg

					// Disk round trip, then merge the decoded copy.
					var rStats OnlineStats
					var rWelch OnlineWelch
					codecCycle(t, pStats, &rStats)
					codecCycle(t, pWelch, &rWelch)
					if err := mStats.Merge(&rStats); err != nil {
						t.Fatal(err)
					}
					if err := mWelch.Merge(&rWelch); err != nil {
						t.Fatal(err)
					}
				}

				gotMean, _ := mStats.Mean()
				wantMean, _ := serialStats.Mean()
				closeRelSlices(t, kind+" codec stats mean", gotMean, wantMean)
				gotVar, _ := mStats.Variance()
				wantVar, _ := serialStats.Variance()
				closeRelSlices(t, kind+" codec stats variance", gotVar, wantVar)

				gotT, err := mWelch.T()
				if err != nil {
					t.Fatal(err)
				}
				wantT, _ := serialWelch.T()
				closeRelSlices(t, kind+" codec welch t", gotT, wantT)
			}
		}
	}
}

// codecCycle pushes src through its binary encoding into dst —
// the property tests' stand-in for a checkpoint write + resume read.
func codecCycle(t *testing.T, src, dst marshaler) {
	t.Helper()
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEdgeCases pins the boundary behaviour every caller of the
// sharded reduction relies on: nil/empty merges are no-ops, merging
// into an empty accumulator deep-copies (the source can be mutated or
// discarded afterwards), sample-length mismatches surface as
// ErrSampleMismatch, and empty accumulators report ErrEmptySet.
func TestMergeEdgeCases(t *testing.T) {
	// No-ops.
	s := NewOnlineStats()
	if err := s.Add([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(NewOnlineStats()); err != nil {
		t.Fatal(err)
	}
	if s.N() != 1 {
		t.Fatalf("no-op merges changed N to %d", s.N())
	}
	m, _ := s.Mean()
	if m[0] != 1 || m[1] != 2 {
		t.Fatalf("no-op merges changed mean to %v", m)
	}

	// Mismatch.
	o := NewOnlineStats()
	o.Add([]float64{1, 2, 3})
	if err := s.Merge(o); err != ErrSampleMismatch {
		t.Fatalf("mismatched merge: err = %v, want ErrSampleMismatch", err)
	}

	// Merge into empty deep-copies: mutating the source afterwards must
	// not leak into the destination.
	src := NewOnlineStats()
	src.Add([]float64{1, 2})
	dst := NewOnlineStats()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	src.Add([]float64{100, 200})
	m, _ = dst.Mean()
	if dst.N() != 1 || m[0] != 1 || m[1] != 2 {
		t.Fatalf("empty-merge aliased source state: n=%d mean=%v", dst.N(), m)
	}

	// Empty accumulators report ErrEmptySet.
	if _, err := NewOnlineStats().Mean(); err != ErrEmptySet {
		t.Fatalf("empty OnlineStats: %v", err)
	}
	if _, err := NewOnlineWelch().T(); err != ErrEmptySet {
		t.Fatalf("empty OnlineWelch: %v", err)
	}
}
