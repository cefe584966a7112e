package fault

import (
	"errors"
	"reflect"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/rng"
)

// TestSweepExhaustiveNoEscapes is the countermeasure claim at sweep
// scale: a stratified grid over the final ladder iteration classifies
// every injection and none escapes output validation.
func TestSweepExhaustiveNoEscapes(t *testing.T) {
	curve := ec.K163()
	rep, err := Sweep(curve, coproc.DefaultTiming(), SweepConfig{
		FromIter: 0, ToIter: 0, // final iteration
		CycleStride: 29, BitStride: 54,
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs() != rep.Total || rep.Total < 300 {
		t.Fatalf("sweep covered %d/%d injections, want >= 300", rep.Runs(), rep.Total)
	}
	if rep.Escaped != 0 || len(rep.Escapes) != 0 {
		t.Fatalf("%d faulty results escaped validation: %v", rep.Escaped, rep.Escapes)
	}
	if rep.Detected == 0 {
		t.Fatal("sweep detected nothing; injector inert?")
	}
	if rep.WindowEnd <= rep.WindowStart {
		t.Fatalf("bad window [%d,%d)", rep.WindowStart, rep.WindowEnd)
	}
	// The per-instruction-class breakdown partitions the totals.
	var sum Tally
	for _, ot := range rep.ByOp {
		sum.Benign += ot.Benign
		sum.Detected += ot.Detected
		sum.Escaped += ot.Escaped
	}
	if sum != rep.Tally {
		t.Fatalf("ByOp breakdown %+v does not partition totals %+v", sum, rep.Tally)
	}
	if len(rep.ByOp) < 2 {
		t.Fatalf("only %d instruction classes in a full-iteration window", len(rep.ByOp))
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

// TestSweepDeterminismAcrossWorkers pins the campaign contract for the
// fault engine: the report — counts, per-class breakdown, escape list
// — is bit-identical for 1, 2 and 7 workers.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	curve := ec.K163()
	cfg := SweepConfig{
		FromIter: 0, ToIter: 0,
		CycleStride: 97, BitStride: 81,
		Seed: 7,
	}
	var ref *SweepReport
	for _, w := range []int{1, 2, 7} {
		c := cfg
		c.Workers = w
		rep, err := Sweep(curve, coproc.DefaultTiming(), c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("workers=%d report diverged:\n%+v\nvs\n%+v", w, rep, ref)
		}
	}
	if ref.Runs() == 0 {
		t.Fatal("empty sweep")
	}
}

// TestSweepMatchesRunWithFault cross-validates the sweep's fast path —
// each faulted run evented only at its injection cycle — against the
// full-simulation path: the same injections on the same computation
// must classify identically. The windows sit at both ends of the
// ladder — the final iteration, where the quiet prefix is longest, and
// the first, where the quiet suffix is — and past it: the final
// iteration through the post-processing, whose 7 889 cycles
// [78 450, 86 339) hold 33 of the window's strided cycles.
func TestSweepMatchesRunWithFault(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	const seed = 13
	for _, win := range [][2]int{{0, 0}, {162, 162}, {0, -1}} {
		cfg := SweepConfig{
			FromIter: win[0], ToIter: win[1],
			CycleStride: 241, RegStride: 3, BitStride: 82,
			Seed: seed,
		}
		rep, err := Sweep(curve, tim, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Replicate the sweep's computation and classify the same grid
		// with RunWithFault (full reference + full faulted run each).
		d := rng.NewDRBG(seed)
		k := curve.Order.RandNonZero(d.Uint64)
		p := curve.RandomPoint(d.Uint64)
		trng := uint64(seed) ^ 0xF1A7_5EED
		var slow Tally
		for c := rep.WindowStart; c < rep.WindowEnd; c += 241 {
			for r := 0; r < coproc.NumRegs; r += 3 {
				for b := 0; b < 163; b += 82 {
					res, err := RunWithFault(curve, tim, k, p, Injection{Cycle: c, Reg: r, Bit: b}, trng)
					if err != nil {
						t.Fatal(err)
					}
					switch res {
					case Benign:
						slow.Benign++
					case Detected:
						slow.Detected++
					case Escaped:
						slow.Escaped++
					}
				}
			}
		}
		if slow != rep.Tally {
			t.Fatalf("window %v: quiet-prefix path %+v != full-simulation path %+v", win, rep.Tally, slow)
		}
		if slow.Runs() != rep.Total {
			t.Fatalf("window %v: grid mismatch: %d vs %d", win, slow.Runs(), rep.Total)
		}
	}
}

// TestSweepConfigValidation rejects malformed windows and grids.
func TestSweepConfigValidation(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	if _, err := Sweep(curve, tim, SweepConfig{FromIter: 0, ToIter: 5}); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := Sweep(curve, tim, SweepConfig{FromIter: 163}); err == nil {
		t.Fatal("window beyond key length accepted")
	}
	if _, err := Sweep(curve, tim, SweepConfig{ToIter: -1, FromIter: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := Sweep(curve, tim, SweepConfig{FromIter: 0, ToIter: -2}); err == nil {
		t.Fatal("window end below the post-processing sentinel accepted")
	}
}

// TestInjectionErrorTyped pins the satellite contract: invalid
// injections — including negative cycles — surface as *InjectionError.
func TestInjectionErrorTyped(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	d := rng.NewDRBG(4)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	for _, inj := range []Injection{
		{Cycle: -1, Reg: 0, Bit: 0},
		{Cycle: 10, Reg: coproc.NumRegs, Bit: 0},
		{Cycle: 10, Reg: -1, Bit: 0},
		{Cycle: 10, Reg: 0, Bit: 163},
		{Cycle: 10, Reg: 0, Bit: -5},
		{Cycle: 1 << 30, Reg: 0, Bit: 0}, // beyond program end
	} {
		_, err := RunWithFault(curve, tim, k, p, inj, 1)
		var ie *InjectionError
		if !errors.As(err, &ie) {
			t.Fatalf("injection %+v: error %v is not *InjectionError", inj, err)
		}
		if ie.Error() == "" {
			t.Fatal("empty error rendering")
		}
	}
}

// BenchmarkSweepPerInjection prices the sweep's fast path: one shared
// reference run, then per injection a run evented only at its
// injection cycle.
func BenchmarkSweepPerInjection(b *testing.B) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	var runs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Sweep(curve, tim, SweepConfig{
			FromIter: 0, ToIter: 0,
			CycleStride: 29, BitStride: 54,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		runs += rep.Runs()
	}
	b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "inj/s")
}
