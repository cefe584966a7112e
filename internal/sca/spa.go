package sca

import (
	"errors"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/trace"
)

// SPAResult reports a simple power analysis attempt: per-iteration
// key-bit classification from the conditional-swap power signature.
type SPAResult struct {
	// Recovered holds the classified bits, iteration 162 first.
	Recovered []uint
	// True holds the device's actual key bits.
	True []uint
	// Features holds the per-iteration CSWAP power feature (for
	// diagnostics and plots).
	Features []float64
}

// Accuracy is the fraction of correctly classified bits. 1.0 means
// full key recovery from the trace; ~0.5 means the trace carries no
// usable SPA information.
func (r *SPAResult) Accuracy() float64 {
	if len(r.Recovered) == 0 {
		return 0
	}
	n := 0
	for i := range r.Recovered {
		if r.Recovered[i] == r.True[i] {
			n++
		}
	}
	return float64(n) / float64(len(r.Recovered))
}

// cswapSampleIndex returns, per ladder iteration, the within-window
// sample indices of the CSWAP cycles.
func cswapSampleIndices(t *Target, windowStart int) map[int][]int {
	out := map[int][]int{}
	for _, sp := range t.prog.Spans(t.Timing) {
		if sp.Op == coproc.OpCSwap && sp.Iteration >= 0 {
			for cyc := sp.Start; cyc < sp.End; cyc++ {
				out[sp.Iteration] = append(out[sp.Iteration], cyc-windowStart)
			}
		}
	}
	return out
}

// classify thresholds the per-iteration features with 2-means
// clustering, mapping the higher-power cluster to bit 1 (every leak in
// the model draws extra current when the swap fires).
func classify(features []float64) []uint {
	lo, hi := features[0], features[0]
	for _, f := range features {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	c0, c1 := lo, hi
	for round := 0; round < 16; round++ {
		var s0, s1 float64
		var n0, n1 int
		for _, f := range features {
			if f-c0 <= c1-f {
				s0 += f
				n0++
			} else {
				s1 += f
				n1++
			}
		}
		if n0 == 0 || n1 == 0 {
			break
		}
		c0, c1 = s0/float64(n0), s1/float64(n1)
	}
	bits := make([]uint, len(features))
	for i, f := range features {
		if f-c0 > c1-f {
			bits[i] = 1
		}
	}
	return bits
}

// SPA mounts the single-trace simple power analysis of §6/§7: acquire
// one trace of the full ladder, extract each iteration's CSWAP-cycle
// power, and classify the 163 key bits by clustering. Against the
// unbalanced mux encoding or data-dependent clock gating this recovers
// the key from one trace; against the balanced design it degrades to
// coin flipping.
func SPA(t *Target, p ec.Point, idx uint64) (*SPAResult, error) {
	return spaAveraged(t, p, idx, 1)
}

// SPAProfiled averages n traces with the same key before classifying —
// the "complex profiling phase" of §7 that exploits the residual
// layout imbalance the single-trace attack cannot see.
func SPAProfiled(t *Target, p ec.Point, n int) (*SPAResult, error) {
	return spaAveraged(t, p, 0, n)
}

func spaAveraged(t *Target, p ec.Point, idx uint64, n int) (*SPAResult, error) {
	if n < 1 {
		return nil, errors.New("sca: need at least one trace")
	}
	start, end := t.prog.IterationWindow(t.Timing, 162, 0)
	// The full-ladder window still has a (short) prologue before
	// iteration 162; the plan runs it quietly.
	plan := t.planWindow(start, end)
	// Average through the campaign engine: each shard sums its traces
	// in index order on the worker goroutines, and the shard sums are
	// added in shard order.
	var acc []float64
	addInto := func(dst *[]float64, samples []float64) error {
		if *dst == nil {
			*dst = make([]float64, len(samples))
		}
		if len(samples) != len(*dst) {
			return trace.ErrSampleMismatch
		}
		for s, v := range samples {
			(*dst)[s] += v
		}
		return nil
	}
	prepare := func(i int) (acqJob, error) {
		return acqJob{key: t.Key, point: p, dev: idx + uint64(i)}, nil
	}
	_, err := runCampaign(t, 0, n, t.engineConfig(), plan, prepare,
		func(shard int) *[]float64 { return new([]float64) },
		func(shard int, sum *[]float64, i int, j acqJob, tr trace.Trace) error {
			err := addInto(sum, tr.Samples)
			tr.Release() // folded, not retained
			return err
		},
		func(shard int, sum *[]float64) error {
			if *sum == nil {
				return nil
			}
			return addInto(&acc, *sum)
		})
	if err != nil {
		return nil, err
	}
	inv := 1 / float64(n)
	for j := range acc {
		acc[j] *= inv
	}

	cswaps := cswapSampleIndices(t, start)
	res := &SPAResult{}
	for iter := 162; iter >= 0; iter-- {
		idxs := cswaps[iter]
		if len(idxs) == 0 {
			return nil, errors.New("sca: iteration without CSWAP cycles")
		}
		var f float64
		for _, s := range idxs {
			f += acc[s]
		}
		res.Features = append(res.Features, f/float64(len(idxs)))
		res.True = append(res.True, t.Key.Bit(iter))
	}
	res.Recovered = classify(res.Features)
	return res, nil
}

// MeanAbsFeatureGap returns the separation between the two classified
// clusters in multiples of the within-cluster spread — an SNR-style
// diagnostic for how visible the swap is in the trace.
func (r *SPAResult) MeanAbsFeatureGap() float64 {
	var s0, s1 []float64
	for i, b := range r.Recovered {
		if b == 1 {
			s1 = append(s1, r.Features[i])
		} else {
			s0 = append(s0, r.Features[i])
		}
	}
	if len(s0) == 0 || len(s1) == 0 {
		return 0
	}
	gap := trace.Mean(s1) - trace.Mean(s0)
	spread := (trace.StdDev(s0) + trace.StdDev(s1)) / 2
	if spread == 0 {
		return 0
	}
	return gap / spread
}
