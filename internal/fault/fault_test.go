package fault

import (
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/rng"
)

func TestSingleFaultIsCaught(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	d := rng.NewDRBG(1)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	// A fault on X0 at an iteration boundary is certainly live (the
	// next MAdd reads it), must corrupt the result, and must be
	// detected by output validation. (Faults landing on values that
	// are overwritten before use are benign; the sweep tests cover the
	// distribution.)
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	start, _ := prog.IterationWindow(tim, 100, 100)
	res, err := RunWithFault(curve, tim, k, p, Injection{Cycle: start, Reg: 0, Bit: 80}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res != Detected {
		t.Fatalf("mid-ladder fault outcome %v, want detected", res)
	}
}

func TestFaultCampaignNeverEscapes(t *testing.T) {
	// The countermeasure claim where a valid-looking wrong output is
	// likeliest: across single-bit faults in the final ladder iteration
	// and the post-processing (inversion, y-recovery), no corrupted
	// result passes validation.
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	rep, err := Sweep(curve, tim, SweepConfig{
		FromIter: 0, ToIter: -1,
		CycleStride: 97, RegStride: 2, BitStride: 82,
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if end := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true}).CycleCount(tim); rep.WindowEnd != end {
		t.Fatalf("window ends at cycle %d, want the program's end %d", rep.WindowEnd, end)
	}
	if rep.Escaped != 0 {
		t.Fatalf("%d faulty results escaped validation: %v", rep.Escaped, rep.Escapes)
	}
	if rep.Detected == 0 {
		t.Fatal("sweep detected nothing; injector inert?")
	}
	if rep.Runs() != rep.Total {
		t.Fatal("sweep bookkeeping broken")
	}
}

func TestValidateOutputAcceptsHonestResults(t *testing.T) {
	curve := ec.K163()
	d := rng.NewDRBG(3)
	for i := 0; i < 5; i++ {
		k := curve.Order.RandNonZero(d.Uint64)
		p := curve.RandomPoint(d.Uint64)
		q, err := curve.ScalarMulLadder(k, p, ec.LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateOutput(curve, q); err != nil {
			t.Fatalf("honest result rejected: %v", err)
		}
	}
}

func TestInjectionValidation(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	d := rng.NewDRBG(4)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	if _, err := RunWithFault(curve, tim, k, p, Injection{Cycle: 10, Reg: 9, Bit: 0}, 1); err == nil {
		t.Fatal("out-of-range register accepted")
	}
	if _, err := RunWithFault(curve, tim, k, p, Injection{Cycle: 10, Reg: 0, Bit: 200}, 1); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
	if _, err := RunWithFault(curve, tim, k, p, Injection{Cycle: 1 << 30, Reg: 0, Bit: 0}, 1); err == nil {
		t.Fatal("unreachable cycle accepted")
	}
}

func TestResultString(t *testing.T) {
	for _, r := range []Result{Benign, Detected, Escaped, Result(9)} {
		if r.String() == "" {
			t.Fatal("empty result name")
		}
	}
}
