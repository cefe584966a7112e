package trace

import (
	"errors"
	"math"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/rng"
)

func synthSet(nTraces, nSamples int, gen func(t, s int) float64) *Set {
	set := &Set{}
	for i := 0; i < nTraces; i++ {
		tr := Trace{Samples: make([]float64, nSamples)}
		for j := 0; j < nSamples; j++ {
			tr.Samples[j] = gen(i, j)
		}
		set.Add(tr)
	}
	return set
}

func TestMeanTrace(t *testing.T) {
	set := synthSet(4, 3, func(ti, si int) float64 { return float64(ti) })
	mean, err := set.MeanTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mean {
		if m != 1.5 {
			t.Fatalf("mean %v, want 1.5", m)
		}
	}
}

func TestValidation(t *testing.T) {
	empty := &Set{}
	if _, err := empty.MeanTrace(); err != ErrEmptySet {
		t.Fatal("empty set accepted")
	}
	ragged := &Set{}
	ragged.Add(Trace{Samples: []float64{1, 2}})
	ragged.Add(Trace{Samples: []float64{1}})
	if _, err := ragged.MeanTrace(); err != ErrEmptySet {
		t.Fatal("ragged set accepted")
	}
}

func TestWelchTDetectsMeanShift(t *testing.T) {
	g := rng.NewGaussian(1)
	a := synthSet(500, 4, func(ti, si int) float64 {
		v := g.Sample()
		if si == 2 {
			v += 1.0 // leak at sample 2
		}
		return v
	})
	b := synthSet(500, 4, func(ti, si int) float64 { return g.Sample() })
	ts, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	maxT, idx := MaxAbs(ts)
	if idx != 2 {
		t.Fatalf("leak located at sample %d, want 2", idx)
	}
	if maxT < 4.5 {
		t.Fatalf("t = %.2f fails to flag a full-sigma shift", maxT)
	}
	for i, v := range ts {
		if i != 2 && math.Abs(v) > 4.5 {
			t.Fatalf("false positive at sample %d: t=%.2f", i, v)
		}
	}
}

func TestWelchTNoLeakStaysBelowThreshold(t *testing.T) {
	g := rng.NewGaussian(2)
	a := synthSet(400, 8, func(ti, si int) float64 { return g.Sample() })
	b := synthSet(400, 8, func(ti, si int) float64 { return g.Sample() })
	ts, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if maxT, _ := MaxAbs(ts); maxT > 4.5 {
		t.Fatalf("identical distributions flagged: t=%.2f", maxT)
	}
}

// PearsonAt is the textbook one-pass Pearson correlation between the
// hypothesis vector h and the single sample column col: the statistic
// the CPA (internal/sca) computes at each write's writeback cycle, there
// with sums it can resume as its campaign grows. The tests below pin
// the formula's behaviour: it finds the correlated column, refuses
// malformed input, and reads constant data as 0, not NaN.
func PearsonAt(s *Set, h []float64, col int) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if len(h) != s.Len() {
		return 0, errors.New("trace: hypothesis length mismatch")
	}
	if col < 0 || col >= s.SampleLen() {
		return 0, errors.New("trace: column out of range")
	}
	n := float64(s.Len())
	var sh, sx, shh, sxx, shx float64
	for ti, t := range s.Traces {
		x := t.Samples[col]
		sh += h[ti]
		sx += x
		shh += h[ti] * h[ti]
		sxx += x * x
		shx += h[ti] * x
	}
	cov := shx - sh*sx/n
	vh := shh - sh*sh/n
	vx := sxx - sx*sx/n
	if vh <= 0 || vx <= 0 {
		return 0, nil
	}
	return cov / math.Sqrt(vh*vx), nil
}

func TestPearsonFindsCorrelatedSample(t *testing.T) {
	g := rng.NewGaussian(3)
	h := make([]float64, 300)
	for i := range h {
		h[i] = float64(i % 7)
	}
	set := synthSet(300, 5, func(ti, si int) float64 {
		if si == 3 {
			return h[ti]*0.5 + 0.1*g.Sample()
		}
		return g.Sample()
	})
	rho := make([]float64, set.SampleLen())
	for col := range rho {
		r, err := PearsonAt(set, h, col)
		if err != nil {
			t.Fatal(err)
		}
		rho[col] = r
	}
	best, idx := MaxAbs(rho)
	if idx != 3 {
		t.Fatalf("correlation peak at %d, want 3", idx)
	}
	if best < 0.9 {
		t.Fatalf("peak correlation %.3f too weak", best)
	}
	if _, err := PearsonAt(set, h[:5], 3); err == nil {
		t.Fatal("hypothesis length mismatch accepted")
	}
	for _, col := range []int{-1, set.SampleLen()} {
		if _, err := PearsonAt(set, h, col); err == nil {
			t.Fatalf("column %d out of range accepted", col)
		}
	}
}

func TestPearsonConstantInputs(t *testing.T) {
	set := synthSet(10, 2, func(ti, si int) float64 { return 1 })
	h := make([]float64, 10)
	for col := 0; col < set.SampleLen(); col++ {
		rho, err := PearsonAt(set, h, col)
		if err != nil {
			t.Fatal(err)
		}
		if rho != 0 {
			t.Fatal("constant data should give zero correlation, not NaN")
		}
	}
}

func TestCollectorWindowing(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{})
	cfg := power.ProtectedChip(1)
	cfg.NoiseSigma = 0
	model := power.NewModel(cfg)
	col := NewCollector(model, 100, 300)
	cpu := coproc.NewCPU(coproc.DefaultTiming())
	cpu.Probe = col.LaneSink()
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	if _, err := cpu.Run(prog, modn.FromUint64(0xabcdef)); err != nil {
		t.Fatal(err)
	}
	tr := col.Take()
	if len(tr.Samples) != 200 {
		t.Fatalf("window captured %d samples, want 200", len(tr.Samples))
	}
	if tr.StartCycle != 100 {
		t.Fatalf("StartCycle %d", tr.StartCycle)
	}
	// Take must reset.
	if again := col.Take(); len(again.Samples) != 0 {
		t.Fatal("Take did not reset the collector")
	}
}

// TestFullPMTraceHasAllIterations records a whole point
// multiplication and counts its cycles per ladder iteration: all 163
// iterations appear, each takes the same number of cycles (constant
// time), and the trace holds one sample per cycle.
func TestFullPMTraceHasAllIterations(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{})
	cfg := power.ProtectedChip(2)
	cfg.NoiseSigma = 0
	model := power.NewModel(cfg)
	col := NewCollector(model, 0, 0)
	sink := col.LaneSink()
	perIter := map[int]int{}
	cycles := 0
	cpu := coproc.NewCPU(coproc.DefaultTiming())
	cpu.Probe = func(ev *coproc.CycleEvent) {
		cycles++
		if ev.Iteration >= 0 {
			perIter[ev.Iteration]++
		}
		sink(ev)
	}
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	if _, err := cpu.Run(prog, modn.FromUint64(0x1234)); err != nil {
		t.Fatal(err)
	}
	tr := col.Take()
	if len(tr.Samples) != cycles {
		t.Fatalf("trace holds %d samples for %d cycles", len(tr.Samples), cycles)
	}
	if len(perIter) != coproc.LadderIterations {
		t.Fatalf("run contains %d iterations, want %d", len(perIter), coproc.LadderIterations)
	}
	// All iterations take the same number of cycles (constant time).
	iterLen := 0
	for it, l := range perIter {
		if iterLen == 0 {
			iterLen = l
		}
		if l != iterLen {
			t.Fatalf("iteration %d takes %d cycles, another takes %d", it, l, iterLen)
		}
	}
}

func TestHelpers(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-input helpers should return 0")
	}
	if sd := StdDev([]float64{2, 2, 2}); sd != 0 {
		t.Fatalf("StdDev of constant = %v", sd)
	}
	if v, i := MaxAbs([]float64{1, -5, 3}); v != 5 || i != 1 {
		t.Fatalf("MaxAbs = (%v, %d)", v, i)
	}
	if v, i := MaxAbs(nil); v != 0 || i != -1 {
		t.Fatal("MaxAbs(nil) wrong")
	}
}
