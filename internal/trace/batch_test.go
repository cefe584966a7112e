package trace

import "math"

// The batch statistics over a retained Set and the accessors of the
// degree-4 moments: the oracles the streaming accumulators are checked
// against.

// Add appends a trace.
func (s *Set) Add(t Trace) { s.Traces = append(s.Traces, t) }

// validate checks the set is non-empty and rectangular.
func (s *Set) validate() error {
	if len(s.Traces) == 0 || len(s.Traces[0].Samples) == 0 {
		return ErrEmptySet
	}
	n := len(s.Traces[0].Samples)
	for _, t := range s.Traces {
		if len(t.Samples) != n {
			return ErrEmptySet
		}
	}
	return nil
}

// MeanTrace returns the per-sample mean across the set.
func (s *Set) MeanTrace() ([]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.SampleLen()
	mean := make([]float64, n)
	for _, t := range s.Traces {
		for i, v := range t.Samples {
			mean[i] += v
		}
	}
	inv := 1 / float64(len(s.Traces))
	for i := range mean {
		mean[i] *= inv
	}
	return mean, nil
}

// meanVar returns per-sample mean and (population) variance.
func (s *Set) meanVar() (mean, variance []float64, err error) {
	mean, err = s.MeanTrace()
	if err != nil {
		return nil, nil, err
	}
	variance = make([]float64, len(mean))
	for _, t := range s.Traces {
		for i, v := range t.Samples {
			d := v - mean[i]
			variance[i] += d * d
		}
	}
	inv := 1 / float64(len(s.Traces))
	for i := range variance {
		variance[i] *= inv
	}
	return mean, variance, nil
}

// WelchT computes the per-sample Welch t-statistic between two sets —
// the TVLA fixed-vs-random leakage test. |t| > 4.5 is the customary
// evidence-of-leakage threshold.
func WelchT(a, b *Set) ([]float64, error) {
	ma, va, err := a.meanVar()
	if err != nil {
		return nil, err
	}
	mb, vb, err := b.meanVar()
	if err != nil {
		return nil, err
	}
	if len(ma) != len(mb) {
		return nil, ErrEmptySet
	}
	na, nb := float64(a.Len()), float64(b.Len())
	out := make([]float64, len(ma))
	for i := range ma {
		denom := math.Sqrt(va[i]/na + vb[i]/nb)
		if denom == 0 {
			out[i] = 0
			continue
		}
		out[i] = (ma[i] - mb[i]) / denom
	}
	return out, nil
}

// NewOnlineMoments returns an empty accumulator; the sample length is
// fixed by the first Add.
func NewOnlineMoments() *OnlineMoments { return &OnlineMoments{} }

// Mean returns a copy of the per-sample running mean.
func (o *OnlineMoments) Mean() ([]float64, error) {
	if o.n == 0 {
		return nil, ErrEmptySet
	}
	return append([]float64(nil), o.mean...), nil
}

// CentralMoment returns a copy of the per-sample central moment of the
// given order (2, 3 or 4), normalized by n (population convention,
// like OnlineStats.Variance).
func (o *OnlineMoments) CentralMoment(order int) ([]float64, error) {
	if o.n == 0 {
		return nil, ErrEmptySet
	}
	var src []float64
	switch order {
	case 2:
		src = o.m2
	case 3:
		src = o.m3
	case 4:
		src = o.m4
	default:
		return nil, ErrEmptySet
	}
	out := make([]float64, len(src))
	inv := 1 / float64(o.n)
	for i, v := range src {
		out[i] = v * inv
	}
	return out, nil
}

// CenterSquare replaces each sample by its centered product
// (x−μ)·(x−μ) about the given per-column means. It is OnlineWelch2's
// test oracle: Welch's t on a retained set centered this way is what
// the second-order t-test computes from moment state alone. The
// centered-product CPA (internal/sca) forms the same products itself,
// only for the write cycles it correlates.
func CenterSquare(samples, mean []float64) error {
	if len(samples) != len(mean) {
		return ErrSampleMismatch
	}
	for i, v := range samples {
		d := v - mean[i]
		samples[i] = d * d
	}
	return nil
}
