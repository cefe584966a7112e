package sca

import (
	"math"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/trace"
)

// TimingReport compares the execution-time key dependence of the
// constant-time Montgomery powering ladder against the textbook
// double-and-add baseline (paper §7: "the prototype co-processor is
// intrinsically resistant to timing attacks ... the computation time
// of a point multiplication is the same for different key values").
type TimingReport struct {
	// Keys is the number of random keys measured.
	Keys int
	// LadderCycles is the (single) ladder cycle count; the ladder
	// produces the same value for every key.
	LadderCycles int
	// LadderVariance is the observed variance of the ladder cycle
	// count across keys (must be 0).
	LadderVariance float64
	// DAMinCycles/DAMaxCycles bound the double-and-add latencies.
	DAMinCycles, DAMaxCycles int
	// DAHWCorrelation is the Pearson correlation between the
	// double-and-add latency and the key's Hamming weight — the
	// quantity a timing attacker estimates.
	DAHWCorrelation float64
	// DARecoveredHWError is the mean absolute error of the attacker's
	// Hamming-weight estimate derived from latency alone.
	DARecoveredHWError float64
}

// DoubleAndAddCycleModel returns the cycle costs of one affine point
// doubling and one affine addition on the same co-processor (each
// needs a field inversion — an Itoh–Tsujii chain of 9 MUL + 162 SQR —
// plus 2 MUL, 1 SQR and bookkeeping).
func DoubleAndAddCycleModel(t coproc.Timing) (doubleCycles, addCycles int) {
	malu := t.InstrCycles(coproc.OpMul)
	inv := (9+162)*malu + 10*t.SingleCycle
	op := inv + 2*malu + malu + 6*t.SingleCycle
	return op, op
}

// TimingAttack measures both implementations over nKeys random keys.
func TimingAttack(curve *ec.Curve, tim coproc.Timing, nKeys int, src func() uint64) *TimingReport {
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	ladder := prog.CycleCount(tim)
	cDbl, cAdd := DoubleAndAddCycleModel(tim)

	rep := &TimingReport{Keys: nKeys, LadderCycles: ladder}
	var daCycles, hw []float64
	rep.DAMinCycles = math.MaxInt
	for i := 0; i < nKeys; i++ {
		k := curve.Order.RandNonZero(src)
		doubles, adds := ec.DoubleAndAddOpCount(k)
		cycles := doubles*cDbl + adds*cAdd
		if cycles < rep.DAMinCycles {
			rep.DAMinCycles = cycles
		}
		if cycles > rep.DAMaxCycles {
			rep.DAMaxCycles = cycles
		}
		daCycles = append(daCycles, float64(cycles))
		hw = append(hw, float64(k.Weight()))
	}
	rep.DAHWCorrelation = pearsonScalar(daCycles, hw)

	// The attacker inverts the latency model to estimate HW(k):
	// latency = bits*cDbl + HW*cAdd, with bits read off the latency
	// itself is not separable, so estimate assuming full-length keys
	// (bitlen 162, the overwhelmingly likely case).
	var errSum float64
	for i := range daCycles {
		est := (daCycles[i] - 162*float64(cDbl)) / float64(cAdd)
		errSum += math.Abs(est - hw[i])
	}
	rep.DARecoveredHWError = errSum / float64(len(daCycles))

	// Ladder variance across keys is structurally zero; record the
	// measured value anyway (CycleCount is key-independent).
	var lv []float64
	for i := 0; i < nKeys; i++ {
		lv = append(lv, float64(ladder))
	}
	rep.LadderVariance = trace.StdDev(lv) * trace.StdDev(lv)
	return rep
}

func pearsonScalar(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	ma, mb := trace.Mean(a), trace.Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// VerifyConstantTime runs the ladder program on the simulator for the
// given keys and returns the set of distinct cycle counts observed
// (length 1 = constant time). Unlike TimingAttack, which uses the
// static model, this measures the executed instruction stream.
func VerifyConstantTime(t *Target, keys []modn.Scalar, p ec.Point) ([]int, error) {
	distinct := map[int]bool{}
	lc := coproc.NewLaneCPU(t.Timing)
	consts := coproc.OperandConstants(p.X, t.Curve.B, p.Y)
	for i, k := range keys {
		rand := func() uint64 { return 0xabcdef123456789 ^ uint64(i) | 1 }
		cycles, err := lc.Run(t.prog, []coproc.LaneRun{{Key: k, Rand: rand, Consts: consts}})
		if err != nil {
			return nil, err
		}
		distinct[cycles] = true
	}
	out := make([]int, 0, len(distinct))
	for c := range distinct {
		out = append(out, c)
	}
	return out, nil
}
