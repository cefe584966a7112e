package sca

import (
	"errors"
	"math"

	"medsec/internal/ec"
	"medsec/internal/trace"
)

// Template attack — the §7 scenario made concrete: "in order for the
// attacker to exploit it, he has to perform a complex profiling phase
// with an identical device that is under his total control". The
// attacker first characterizes the CSWAP-cycle power on a profiling
// device with *known* keys (building Gaussian templates for the
// bit = 0 and bit = 1 classes), then classifies the victim's
// iterations by likelihood. Unlike blind clustering, the calibrated
// decision threshold works even for skewed keys and sub-sigma leaks.

// Template is the per-class Gaussian model of the CSWAP feature.
type Template struct {
	Mean0, Mean1 float64
	// Sigma is the pooled per-feature standard deviation for a single
	// (unaveraged) trace.
	Sigma float64
	// Profiled is the number of (iteration, trace) feature samples
	// per class.
	Profiled int
}

// Separation returns the class distance in sigmas for n-trace
// averaging — the attack's expected strength.
func (tm *Template) Separation(nAvg int) float64 {
	if tm.Sigma == 0 {
		return math.Inf(1)
	}
	return math.Abs(tm.Mean1-tm.Mean0) / (tm.Sigma / math.Sqrt(float64(nAvg)))
}

// BuildTemplate profiles a device with known keys: nProfile full
// acquisitions, each under a fresh known key, yield labeled
// CSWAP-cycle features for both classes.
func BuildTemplate(profiler *Target, p ec.Point, nProfile int) (*Template, error) {
	if nProfile < 2 {
		return nil, errors.New("sca: need at least two profiling traces")
	}
	start, end := profiler.prog.IterationWindow(profiler.Timing, 162, 0)
	cswaps := cswapSampleIndices(profiler, start)
	plan := profiler.planWindow(start, end)
	// Profiling acquisitions fan out over the campaign engine: each
	// shard appends its labeled features in index order and the shard
	// slices are concatenated in shard order — since every feature is
	// appended, not summed, the template is bit-identical for any shard
	// count. Each job carries its known profiling key so the fold can
	// label the features without re-deriving the key stream.
	var f0, f1 []float64
	extract := func(j acqJob, tr trace.Trace, f0, f1 *[]float64) {
		for iter := 162; iter >= 0; iter-- {
			idxs := cswaps[iter]
			var v float64
			for _, s := range idxs {
				v += tr.Samples[s]
			}
			v /= float64(len(idxs))
			if j.key.Bit(iter) == 1 {
				*f1 = append(*f1, v)
			} else {
				*f0 = append(*f0, v)
			}
		}
	}
	prepare := func(i int) (acqJob, error) {
		// The profiling device is under the attacker's total control:
		// fresh known key per acquisition. The key stream derives purely
		// from the index, matching the old serial derivation.
		k := AlgorithmOneScalar(profiler.Curve, rngSourceFor(profiler, uint64(i)))
		return acqJob{key: k, point: p, dev: uint64(1000 + i)}, nil
	}
	type classes struct{ f0, f1 []float64 }
	_, err := runCampaign(profiler, 0, nProfile, profiler.engineConfig(), plan, prepare,
		func(shard int) *classes { return &classes{} },
		func(shard int, cl *classes, i int, j acqJob, tr trace.Trace) error {
			extract(j, tr, &cl.f0, &cl.f1)
			tr.Release() // folded, not retained
			return nil
		},
		func(shard int, cl *classes) error {
			f0 = append(f0, cl.f0...)
			f1 = append(f1, cl.f1...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(f0) == 0 || len(f1) == 0 {
		return nil, errors.New("sca: profiling produced a single class")
	}
	m0, m1 := trace.Mean(f0), trace.Mean(f1)
	s0, s1 := trace.StdDev(f0), trace.StdDev(f1)
	return &Template{
		Mean0:    m0,
		Mean1:    m1,
		Sigma:    math.Sqrt((s0*s0 + s1*s1) / 2),
		Profiled: len(f0) + len(f1),
	}, nil
}

// rngSourceFor derives a deterministic profiling-key stream.
func rngSourceFor(t *Target, i uint64) func() uint64 {
	seed := t.TRNGSeed ^ 0xABCD ^ (i+1)*0x2545F4914F6CDD1D
	x := seed
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}

// TemplateAttack classifies the victim's key bits by averaging nAvg
// victim traces (same key; RPC does not randomize the control-network
// leak) and comparing each iteration's feature to the calibrated
// midpoint.
func TemplateAttack(tm *Template, victim *Target, p ec.Point, nAvg int) (*SPAResult, error) {
	if nAvg < 1 {
		return nil, errors.New("sca: need at least one victim trace")
	}
	res, err := spaAveraged(victim, p, 5000, nAvg)
	if err != nil {
		return nil, err
	}
	// Re-classify with the calibrated threshold instead of clustering.
	mid := (tm.Mean0 + tm.Mean1) / 2
	oneIsHigh := tm.Mean1 > tm.Mean0
	for i, f := range res.Features {
		bit := uint(0)
		if (f > mid) == oneIsHigh {
			bit = 1
		}
		res.Recovered[i] = bit
	}
	return res, nil
}
