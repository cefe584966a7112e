package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

var latencyBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// TestMergedShardsEqualSingleStream pins the fleet contract: split any
// observation stream across any number of shards, merge the shard
// histograms in any order, and the bucket counts — hence every
// quantile — are bit-identical to observing the whole stream into one
// histogram.
func TestMergedShardsEqualSingleStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	obsStream := make([]float64, 5000)
	for i := range obsStream {
		obsStream[i] = math.Exp(r.NormFloat64()*1.5 + 2) // heavy-tailed latencies
	}

	single := NewHistogram(latencyBounds)
	for _, v := range obsStream {
		single.Observe(v)
	}
	want := single.Snapshot()

	for _, shards := range []int{1, 3, 7} {
		parts := make([]*Histogram, shards)
		for s := range parts {
			parts[s] = NewHistogram(latencyBounds)
		}
		for i, v := range obsStream {
			parts[i%shards].Observe(v)
		}
		// Merge in a scrambled order to pin order independence.
		order := r.Perm(shards)
		got := NewHistogramSnapshot(latencyBounds)
		for _, s := range order {
			if err := got.Merge(parts[s].Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) || got.Count != want.Count {
			t.Fatalf("shards=%d: merged counts differ from single stream", shards)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if g, w := got.Quantile(q), want.Quantile(q); g != w {
				t.Fatalf("shards=%d: q%.2f = %v merged vs %v single", shards, q, g, w)
			}
		}
	}
}

// TestMergeAssociative pins (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) on counts.
func TestMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mk := func() HistogramSnapshot {
		h := NewHistogramSnapshot(latencyBounds)
		for i := 0; i < 500; i++ {
			h.Observe(r.Float64() * 1200)
		}
		return h
	}
	a, b, c := mk(), mk(), mk()

	left := NewHistogramSnapshot(latencyBounds)
	for _, h := range []HistogramSnapshot{a, b, c} {
		if err := left.Merge(h); err != nil {
			t.Fatal(err)
		}
	}

	bc := NewHistogramSnapshot(latencyBounds)
	for _, h := range []HistogramSnapshot{b, c} {
		if err := bc.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	right := NewHistogramSnapshot(latencyBounds)
	for _, h := range []HistogramSnapshot{a, bc} {
		if err := right.Merge(h); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(left.Counts, right.Counts) || left.Count != right.Count {
		t.Fatal("merge is not associative on bucket counts")
	}
}

// TestMergeRejectsBoundMismatch pins that incompatible histograms
// refuse to merge instead of silently misbinning.
func TestMergeRejectsBoundMismatch(t *testing.T) {
	a := NewHistogramSnapshot([]float64{1, 2, 3})
	b := NewHistogramSnapshot([]float64{1, 2, 4})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge accepted mismatched bounds")
	}
	c := NewHistogramSnapshot([]float64{1, 2})
	if err := a.Merge(c); err == nil {
		t.Fatal("merge accepted different bound counts")
	}
	if err := a.Merge(HistogramSnapshot{Bounds: []float64{1, 2, 3}, Counts: []int64{1, 0, 0}, Count: 2}); err == nil {
		t.Fatal("merge accepted a snapshot whose counts do not sum to Count")
	}
}

// TestSnapshotRoundTrip pins that merging a frozen snapshot into an
// empty one restores it exactly, including continued observation
// afterwards, and that a malformed snapshot is refused.
func TestSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(latencyBounds)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i * 13 % 700))
	}
	hs := h.Snapshot()
	restored := NewHistogramSnapshot(latencyBounds)
	if err := restored.Merge(hs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, hs) {
		t.Fatal("restore is not the inverse of snapshot")
	}
	h.Observe(42)
	restored.Observe(42)
	if a := h.Snapshot(); !reflect.DeepEqual(a.Counts, restored.Counts) || a.Count != restored.Count {
		t.Fatal("restored histogram diverges on continued observation")
	}
	empty := NewHistogramSnapshot([]float64{1})
	if err := empty.Merge(HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{1}}); err == nil {
		t.Fatal("restore accepted a malformed snapshot")
	}
}

// TestSnapshotObserveMatchesLive pins that the offline snapshot form
// bins exactly like the live atomic histogram, and that a
// snapshot-to-snapshot Merge keeps every observation.
func TestSnapshotObserveMatchesLive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	live := NewHistogram(latencyBounds)
	off := NewHistogramSnapshot(latencyBounds)
	for i := 0; i < 2000; i++ {
		v := r.Float64() * 1500
		live.Observe(v)
		off.Observe(v)
	}
	ls := live.Snapshot()
	if !reflect.DeepEqual(ls.Counts, off.Counts) || ls.Count != off.Count {
		t.Fatal("offline snapshot bins differently from live histogram")
	}
	other := NewHistogramSnapshot(latencyBounds)
	for i := 0; i < 500; i++ {
		other.Observe(r.Float64() * 1500)
	}
	merged := NewHistogramSnapshot(latencyBounds)
	if err := merged.Merge(off); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	if merged.Count != off.Count+other.Count {
		t.Fatal("snapshot merge lost observations")
	}
	bad := NewHistogramSnapshot([]float64{1, 2})
	if err := merged.Merge(bad); err == nil {
		t.Fatal("snapshot merge accepted mismatched bounds")
	}
}

// TestQuantileEdgeCases is the boundary table: empty snapshots, all
// mass in the overflow bucket, the q=0/q=1 anchors, out-of-range and
// NaN q, and first buckets with non-positive upper edges (where the
// naive zero anchor used to interpolate downward, handing out
// non-monotone quantiles).
func TestQuantileEdgeCases(t *testing.T) {
	fill := func(bounds []float64, vals ...float64) HistogramSnapshot {
		hs := NewHistogramSnapshot(bounds)
		for _, v := range vals {
			hs.Observe(v)
		}
		return hs
	}
	posB := []float64{10, 20, 30}
	negB := []float64{-10, -5, 5}
	cases := []struct {
		name string
		hs   HistogramSnapshot
		q    float64
		want float64 // NaN means "must be NaN"
	}{
		{"empty/q0", NewHistogramSnapshot(posB), 0, math.NaN()},
		{"empty/q0.5", NewHistogramSnapshot(posB), 0.5, math.NaN()},
		{"empty/q1", NewHistogramSnapshot(posB), 1, math.NaN()},
		{"zero-value snapshot", HistogramSnapshot{}, 0.5, math.NaN()},
		{"nan q", fill(posB, 15), math.NaN(), math.NaN()},

		// All mass in the overflow bucket clamps to the largest finite
		// bound at every q, including the anchors.
		{"overflow-only/q0", fill(posB, 1e9, 2e9), 0, 30},
		{"overflow-only/q0.5", fill(posB, 1e9, 2e9), 0.5, 30},
		{"overflow-only/q1", fill(posB, 1e9, 2e9), 1, 30},

		// q=0 anchors at the lower edge of the first occupied bucket,
		// q=1 at the upper edge of the last occupied one.
		{"anchors/q0", fill(posB, 15, 15, 25), 0, 10},
		{"anchors/q1", fill(posB, 15, 15, 25), 1, 30},
		{"first-bucket/q0", fill(posB, 5, 15), 0, 0},
		{"last-finite/q1", fill(posB, 5, 15), 1, 20},

		// Out-of-range q clamps to the anchors.
		{"q below range", fill(posB, 15), -0.5, 10},
		{"q above range", fill(posB, 15), 2, 20},

		// Non-positive first bound: clamp to the edge, never
		// interpolate away from it.
		{"negative/q0", fill(negB, -20, -20), 0, -10},
		{"negative/q0.5", fill(negB, -20, -20), 0.5, -10},
		{"negative/q1", fill(negB, -20, -20), 1, -10},
	}
	for _, c := range cases {
		got := c.hs.Quantile(c.q)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: got %v, want NaN", c.name, got)
			}
		} else if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}

	// Monotonicity across the negative-bound histogram: the old zero
	// anchor made q=1 sort below q=0 when mass sat in a (-inf, b<=0]
	// bucket.
	mixed := fill(negB, -20, -7, -7, 0, 0, 10)
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		v := mixed.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q%.2f = %v after %v", q, v, prev)
		}
		prev = v
	}
}

// TestQuantileMergedShardEdges pins that the boundary quantiles of a
// merged set of shards — including empty shards and shards whose mass
// is entirely in the overflow bucket — are bit-identical to the
// single-stream histogram over the same observations.
func TestQuantileMergedShardEdges(t *testing.T) {
	bounds := []float64{1, 2, 5, 10}
	streams := [][]float64{
		{},                  // an idle shard
		{1e9, 1e9, 1e9},     // overflow only
		{0.5, 3, 3, 7, 1e9}, // mixed
		{10, 10},            // exactly on the last finite edge
	}
	single := NewHistogramSnapshot(bounds)
	merged := NewHistogramSnapshot(bounds)
	for _, st := range streams {
		shard := NewHistogramSnapshot(bounds)
		for _, v := range st {
			single.Observe(v)
			shard.Observe(v)
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		if g, w := merged.Quantile(q), single.Quantile(q); g != w {
			t.Fatalf("q%.2f: merged %v vs single %v", q, g, w)
		}
	}
}

// TestQuantileEstimator pins the estimator's anchor points on a known
// distribution: uniform counts over [0, 100) in 10 buckets.
func TestQuantileEstimator(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogramSnapshot(bounds)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 10) // 0.0 .. 99.9 uniformly
	}
	cases := []struct{ q, want, tol float64 }{
		{0.5, 50, 1.0},
		{0.95, 95, 1.0},
		{0.99, 99, 1.0},
		{1.0, 100, 0},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > c.tol {
			t.Fatalf("q%.2f = %v, want %v ± %v", c.q, got, c.want, c.tol)
		}
	}
	if !math.IsNaN(NewHistogramSnapshot(bounds).Quantile(0.5)) {
		t.Fatal("empty histogram must estimate NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Snapshot().Quantile(0.5)) {
		t.Fatal("nil histogram must estimate NaN")
	}
	// Overflow observations clamp to the largest finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("overflow quantile = %v, want clamp to 100", got)
	}
}
