package trace

import (
	"errors"
	"math"
)

// Streaming accumulators.
//
// A batch statistic over a retained Set (the tests' WelchT) holds
// every trace of a campaign in memory — O(n·window) — and makes a
// second pass to form the statistic. TVLA's moments are
// order-independent one-pass statistics, so TVLA campaigns (10 000
// traces per set at paper scale) stream instead: each accumulator
// below consumes one trace at a time, keeps O(window) state, and
// reproduces its batch oracle to floating-point rounding (the property
// tests assert agreement to 1e-12).
//
// Numerical note: OnlineStats uses Welford's algorithm, which is
// numerically *better* conditioned than the two-pass batch mean/var.
// Feeding traces in a fixed order (the campaign engine's determinism
// contract) makes every accumulator bit-for-bit reproducible
// regardless of how many workers acquired the traces.

// ErrSampleMismatch is returned when a streamed trace's sample count
// disagrees with the accumulator's.
var ErrSampleMismatch = errors.New("trace: streamed sample length mismatch")

// OnlineStats maintains per-sample running mean and (population)
// variance over a stream of equal-length traces — Welford's algorithm,
// vectorized over the sample axis.
type OnlineStats struct {
	n    int
	mean []float64
	m2   []float64
}

// NewOnlineStats returns an empty accumulator; the sample length is
// fixed by the first Add.
func NewOnlineStats() *OnlineStats { return &OnlineStats{} }

// Add consumes one trace's samples.
func (o *OnlineStats) Add(samples []float64) error {
	if o.mean == nil {
		if len(samples) == 0 {
			return ErrEmptySet
		}
		o.mean = make([]float64, len(samples))
		o.m2 = make([]float64, len(samples))
	}
	if len(samples) != len(o.mean) {
		return ErrSampleMismatch
	}
	o.n++
	inv := 1 / float64(o.n)
	for i, v := range samples {
		d := v - o.mean[i]
		o.mean[i] += d * inv
		o.m2[i] += d * (v - o.mean[i])
	}
	return nil
}

// Merge folds another accumulator into o — Chan et al.'s pairwise
// combination of Welford moments: for each sample,
//
//	n   = na + nb
//	d   = mb - ma
//	mean = ma + d·nb/n
//	m2   = m2a + m2b + d²·na·nb/n
//
// After the merge, o describes exactly the union of the two streams
// (to floating-point rounding; the property tests pin agreement with
// the serial fold to 1e-12). other is not modified and may be reused or
// discarded. Merging an empty accumulator is a no-op in either
// direction. The shard-parallel campaign engine folds per-shard
// accumulators on worker goroutines and Merges them in shard order —
// a bank of lock-in integrators summed at the end of the sweep.
func (o *OnlineStats) Merge(other *OnlineStats) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if o.n == 0 {
		o.n = other.n
		o.mean = append(o.mean[:0], other.mean...)
		o.m2 = append(o.m2[:0], other.m2...)
		return nil
	}
	if len(other.mean) != len(o.mean) {
		return ErrSampleMismatch
	}
	na, nb := float64(o.n), float64(other.n)
	n := na + nb
	for i := range o.mean {
		d := other.mean[i] - o.mean[i]
		o.mean[i] += d * nb / n
		o.m2[i] += other.m2[i] + d*d*na*nb/n
	}
	o.n += other.n
	return nil
}

// N returns the number of traces consumed.
func (o *OnlineStats) N() int { return o.n }

// SampleLen returns the per-trace sample count (0 before the first Add).
func (o *OnlineStats) SampleLen() int { return len(o.mean) }

// Mean returns a copy of the per-sample running mean.
func (o *OnlineStats) Mean() ([]float64, error) {
	if o.n == 0 {
		return nil, ErrEmptySet
	}
	return append([]float64(nil), o.mean...), nil
}

// Variance returns a copy of the per-sample population variance —
// the same normalization the batch meanVar uses.
func (o *OnlineStats) Variance() ([]float64, error) {
	if o.n == 0 {
		return nil, ErrEmptySet
	}
	out := make([]float64, len(o.m2))
	inv := 1 / float64(o.n)
	for i, v := range o.m2 {
		out[i] = v * inv
	}
	return out, nil
}

// welchTerms returns the compared statistic's mean and population
// variance at sample i: the sample mean and variance (n > 0).
func (o *OnlineStats) welchTerms(i int) (mean, variance float64) {
	return o.mean[i], o.m2[i] / float64(o.n)
}

// Population is the per-population accumulator a Welch test compares:
// OnlineStats compares the populations' means (first-order TVLA),
// OnlineMoments their centered squares (second-order TVLA). Only the
// accumulators of this package satisfy it.
type Population[P any] interface {
	*P
	Add(samples []float64) error
	Merge(other *P) error
	N() int
	SampleLen() int
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	welchTerms(i int) (mean, variance float64)
	pairKind() byte
}

// Welch is the streaming two-population Welch t-test — the TVLA
// fixed-vs-random assessment without retaining either trace set, at
// the order its per-population accumulator P sets.
type Welch[P any, PP Population[P]] struct {
	A, B P
}

// OnlineWelch is the first-order test: Welch's t on the samples.
type OnlineWelch = Welch[OnlineStats, *OnlineStats]

// NewOnlineWelch returns an empty first-order accumulator.
func NewOnlineWelch() *OnlineWelch { return &OnlineWelch{} }

// AddA consumes one trace of the first population (e.g. fixed key).
func (w *Welch[P, PP]) AddA(samples []float64) error { return PP(&w.A).Add(samples) }

// AddB consumes one trace of the second population (e.g. random keys).
func (w *Welch[P, PP]) AddB(samples []float64) error { return PP(&w.B).Add(samples) }

// Merge folds another two-population accumulator into w (population A
// with A, B with B) — see OnlineStats.Merge for the combination rule
// and its accuracy contract.
func (w *Welch[P, PP]) Merge(other *Welch[P, PP]) error {
	if other == nil {
		return nil
	}
	if err := PP(&w.A).Merge(&other.A); err != nil {
		return err
	}
	return PP(&w.B).Merge(&other.B)
}

// T returns the per-sample Welch t-statistic of the compared
// statistic, t = (mA-mB) / sqrt(vA/nA + vB/nB) with population
// variances (at first order the batch WelchT), and 0 where the
// denominator vanishes or is NaN.
func (w *Welch[P, PP]) T() ([]float64, error) {
	a, b := PP(&w.A), PP(&w.B)
	if a.N() == 0 || b.N() == 0 || a.SampleLen() != b.SampleLen() {
		return nil, ErrEmptySet
	}
	na, nb := float64(a.N()), float64(b.N())
	out := make([]float64, a.SampleLen())
	for i := range out {
		ma, va := a.welchTerms(i)
		mb, vb := b.welchTerms(i)
		denom := math.Sqrt(va/na + vb/nb)
		if denom == 0 || math.IsNaN(denom) {
			continue
		}
		out[i] = (ma - mb) / denom
	}
	return out, nil
}

// MaxT returns the largest |t| and its sample index ((0, -1) when
// undefined) — the streaming early-stop predicate for TVLA campaigns.
func (w *Welch[P, PP]) MaxT() (float64, int) {
	ts, err := w.T()
	if err != nil {
		return 0, -1
	}
	return MaxAbs(ts)
}
