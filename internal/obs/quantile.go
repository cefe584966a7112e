package obs

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot freezes one histogram's state (zero snapshot on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		hs.Counts[i] = h.buckets[i].Load()
	}
	return hs
}

// boundsEqual reports whether two bound slices are element-wise
// identical — the precondition for a meaningful merge.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validate checks a snapshot's internal shape: one count per bound
// plus the +Inf bucket, bucket counts summing to Count.
func (hs HistogramSnapshot) validate() error {
	if len(hs.Counts) != len(hs.Bounds)+1 {
		return fmt.Errorf("obs: histogram snapshot has %d counts for %d bounds (want %d)",
			len(hs.Counts), len(hs.Bounds), len(hs.Bounds)+1)
	}
	var total int64
	for i, c := range hs.Counts {
		if c < 0 {
			return fmt.Errorf("obs: histogram snapshot bucket %d has negative count %d", i, c)
		}
		total += c
	}
	if total != hs.Count {
		return fmt.Errorf("obs: histogram snapshot bucket counts sum to %d, Count says %d", total, hs.Count)
	}
	return nil
}

// NewHistogramSnapshot returns an empty snapshot over the given
// ascending bounds — the offline (single-goroutine) histogram form
// accumulator structs embed directly: Observe/Merge on a snapshot
// need no atomics, so a fold loop that is already serialized (e.g. a
// campaign shard fold) pays plain integer increments.
func NewHistogramSnapshot(bounds []float64) HistogramSnapshot {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return HistogramSnapshot{Bounds: b, Counts: make([]int64, len(b)+1)}
}

// Observe records one value into the snapshot. Not safe for
// concurrent use — the caller provides the serialization.
func (hs *HistogramSnapshot) Observe(v float64) {
	lo, hi := 0, len(hs.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if hs.Bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hs.Counts[lo]++
	hs.Count++
	hs.Sum += v
}

// Merge folds another snapshot into hs (bounds must match). Counts
// add exactly; Sum is float and order-independent only to rounding.
func (hs *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if err := o.validate(); err != nil {
		return err
	}
	if err := hs.validate(); err != nil {
		return err
	}
	if !boundsEqual(hs.Bounds, o.Bounds) {
		return fmt.Errorf("obs: histogram bounds mismatch: %v vs %v", hs.Bounds, o.Bounds)
	}
	for i, c := range o.Counts {
		hs.Counts[i] += c
	}
	hs.Count += o.Count
	hs.Sum += o.Sum
	return nil
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the bucket containing rank q·Count, the
// standard fixed-bucket estimator: exact at bucket boundaries,
// interpolated within. Values landing in the +Inf overflow bucket
// clamp to the largest finite bound. Returns NaN on an empty
// histogram. Because the estimate is a pure function of (Bounds,
// Counts), merged shards yield bit-identical quantiles to the
// single-stream run.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 || len(hs.Counts) != len(hs.Bounds)+1 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hs.Count)
	cum := 0.0
	for i, c := range hs.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(hs.Bounds) {
			break // overflow bucket: clamp below
		}
		hi := hs.Bounds[i]
		lo := 0.0
		if i > 0 {
			lo = hs.Bounds[i-1]
		} else if hi <= 0 {
			// The first bucket spans (-inf, Bounds[0]]. The zero anchor
			// only makes sense for nonnegative data; with a non-positive
			// upper edge it would interpolate DOWNWARD as q grows
			// (non-monotone quantiles), so clamp to the edge instead.
			return hi
		}
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	if len(hs.Bounds) == 0 {
		return math.NaN()
	}
	return hs.Bounds[len(hs.Bounds)-1]
}
