package trace

// Second-order streaming statistics.
//
// A first-order-masked implementation carries every sensitive value v
// as two shares (v ⊕ m, m) with m fresh-uniform, so the *mean* of any
// single sample is key-independent and first-order TVLA goes flat. The
// key dependence survives in the second central moment: at a masked
// register writeback the summed two-share activity S satisfies
// Var(S) = f(HD(old,new)) — the variance, not the mean, leaks. The
// univariate second-order attack therefore preprocesses each sample
// into its centered product z = (x−μ)·(x−μ) and runs the first-order
// statistic on z. Doing that exactly in one streaming pass requires
// central moments up to order four, which is what OnlineMoments
// maintains (Pébay's single-pass update and pairwise merge — the
// degree-4 generalization of Welford/Chan used by OnlineStats).
//
// OnlineWelch2 is then the Schneider–Moradi second-order t-test: with
// CM2 = M2/n and CM4 = M4/n per population,
//
//	t2 = (CM2_A − CM2_B) / sqrt((CM4_A − CM2_A²)/nA + (CM4_B − CM2_B²)/nB)
//
// i.e. Welch's t on the centered-squared traces, computed from moment
// state alone — no trace retention, same O(window) footprint and same
// fixed-order merge determinism contract as the first-order
// accumulators.

// OnlineMoments maintains per-sample central moments M2, M3, M4 (plus
// mean and count) over a stream of equal-length traces — Pébay's
// one-pass update, vectorized over the sample axis.
type OnlineMoments struct {
	n    int
	mean []float64
	m2   []float64
	m3   []float64
	m4   []float64
}

// Add consumes one trace's samples.
func (o *OnlineMoments) Add(samples []float64) error {
	if o.mean == nil {
		if len(samples) == 0 {
			return ErrEmptySet
		}
		o.mean = make([]float64, len(samples))
		o.m2 = make([]float64, len(samples))
		o.m3 = make([]float64, len(samples))
		o.m4 = make([]float64, len(samples))
	}
	if len(samples) != len(o.mean) {
		return ErrSampleMismatch
	}
	n1 := float64(o.n)
	o.n++
	n := float64(o.n)
	for i, v := range samples {
		d := v - o.mean[i]
		dn := d / n
		dn2 := dn * dn
		t1 := d * dn * n1
		o.mean[i] += dn
		o.m4[i] += t1*dn2*(n*n-3*n+3) + 6*dn2*o.m2[i] - 4*dn*o.m3[i]
		o.m3[i] += t1*dn*(n-2) - 3*dn*o.m2[i]
		o.m2[i] += t1
	}
	return nil
}

// Merge folds another accumulator into o — Pébay's pairwise moment
// combination, the degree-4 analogue of OnlineStats.Merge. After the
// merge, o describes the union of the two streams to floating-point
// rounding; other is not modified. Merging an empty accumulator is a
// no-op in either direction. Shard-parallel campaigns must merge in a
// fixed shard order for bit-identical results, exactly like the
// first-order accumulators.
func (o *OnlineMoments) Merge(other *OnlineMoments) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if o.n == 0 {
		o.n = other.n
		o.mean = append(o.mean[:0], other.mean...)
		o.m2 = append(o.m2[:0], other.m2...)
		o.m3 = append(o.m3[:0], other.m3...)
		o.m4 = append(o.m4[:0], other.m4...)
		return nil
	}
	if len(other.mean) != len(o.mean) {
		return ErrSampleMismatch
	}
	na, nb := float64(o.n), float64(other.n)
	n := na + nb
	for i := range o.mean {
		d := other.mean[i] - o.mean[i]
		d2 := d * d
		m2a, m2b := o.m2[i], other.m2[i]
		m3a, m3b := o.m3[i], other.m3[i]
		o.m4[i] += other.m4[i] +
			d2*d2*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
			6*d2*(na*na*m2b+nb*nb*m2a)/(n*n) +
			4*d*(na*m3b-nb*m3a)/n
		o.m3[i] += m3b + d*d2*na*nb*(na-nb)/(n*n) + 3*d*(na*m2b-nb*m2a)/n
		o.mean[i] += d * nb / n
		o.m2[i] += m2b + d2*na*nb/n
	}
	o.n += other.n
	return nil
}

// N returns the number of traces consumed.
func (o *OnlineMoments) N() int { return o.n }

// SampleLen returns the per-trace sample count (0 before the first Add).
func (o *OnlineMoments) SampleLen() int { return len(o.mean) }

// welchTerms returns the compared statistic's mean and population
// variance at sample i: the centered square's mean CM2 and its
// variance CM4 − CM2² (n > 0).
func (o *OnlineMoments) welchTerms(i int) (mean, variance float64) {
	n := float64(o.n)
	cm2 := o.m2[i] / n
	return cm2, o.m4[i]/n - cm2*cm2
}

// OnlineWelch2 is the second-order (centered-product) test: Welch's t
// on the centered-squared traces of two populations, computed from
// degree-4 moment state without retaining either set.
type OnlineWelch2 = Welch[OnlineMoments, *OnlineMoments]

// NewOnlineWelch2 returns an empty second-order accumulator.
func NewOnlineWelch2() *OnlineWelch2 { return &OnlineWelch2{} }
