package trace

import (
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
		tr := Trace{Samples: make([]float64, nSamples), Iter: make([]int32, nSamples)}
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

func TestDiffOfMeans(t *testing.T) {
	set := synthSet(100, 2, func(ti, si int) float64 {
		if si == 1 && ti%2 == 0 {
			return 2
		}
		return 1
	})
	part := make([]bool, 100)
	for i := range part {
		part[i] = i%2 == 0
	}
	dom, err := DiffOfMeans(set, part)
	if err != nil {
		t.Fatal(err)
	}
	if dom[0] != 0 {
		t.Fatalf("sample 0 diff %v, want 0", dom[0])
	}
	if dom[1] != 1 {
		t.Fatalf("sample 1 diff %v, want 1", dom[1])
	}
	if _, err := DiffOfMeans(set, part[:10]); err == nil {
		t.Fatal("partition length mismatch accepted")
	}
	allTrue := make([]bool, 100)
	for i := range allTrue {
		allTrue[i] = true
	}
	if _, err := DiffOfMeans(set, allTrue); err == nil {
		t.Fatal("degenerate partition accepted")
	}
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
	rho, err := Pearson(set, h)
	if err != nil {
		t.Fatal(err)
	}
	best, idx := MaxAbs(rho)
	if idx != 3 {
		t.Fatalf("correlation peak at %d, want 3", idx)
	}
	if best < 0.9 {
		t.Fatalf("peak correlation %.3f too weak", best)
	}
	if _, err := Pearson(set, h[:5]); err == nil {
		t.Fatal("hypothesis length mismatch accepted")
	}
}

func TestPearsonConstantInputs(t *testing.T) {
	set := synthSet(10, 2, func(ti, si int) float64 { return 1 })
	h := make([]float64, 10)
	rho, err := Pearson(set, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rho {
		if v != 0 {
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
	if len(tr.Iter) != len(tr.Samples) {
		t.Fatal("iteration annotation misaligned")
	}
	// Take must reset.
	if again := col.Take(); len(again.Samples) != 0 {
		t.Fatal("Take did not reset the collector")
	}
}

func TestSegmentByIteration(t *testing.T) {
	tr := Trace{
		Samples: make([]float64, 10),
		Iter:    []int32{-1, -1, 5, 5, 5, 4, 4, -1, 3, 3},
	}
	seg := tr.SegmentByIteration()
	if len(seg) != 3 {
		t.Fatalf("found %d segments, want 3", len(seg))
	}
	if seg[5] != [2]int{2, 5} || seg[4] != [2]int{5, 7} || seg[3] != [2]int{8, 10} {
		t.Fatalf("segments wrong: %v", seg)
	}
}

func TestFullPMTraceHasAllIterations(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{})
	cfg := power.ProtectedChip(2)
	cfg.NoiseSigma = 0
	model := power.NewModel(cfg)
	col := NewCollector(model, 0, 0)
	cpu := coproc.NewCPU(coproc.DefaultTiming())
	cpu.Probe = col.LaneSink()
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	if _, err := cpu.Run(prog, modn.FromUint64(0x1234)); err != nil {
		t.Fatal(err)
	}
	tr := col.Take()
	seg := tr.SegmentByIteration()
	if len(seg) != coproc.LadderIterations {
		t.Fatalf("trace contains %d iterations, want %d", len(seg), coproc.LadderIterations)
	}
	// All iteration segments have the same length (constant time).
	var segLen int
	for _, r := range seg {
		l := r[1] - r[0]
		if segLen == 0 {
			segLen = l
		}
		if l != segLen {
			t.Fatalf("iteration segments differ in length: %d vs %d", l, segLen)
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
