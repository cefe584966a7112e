package sca

import (
	"errors"
	"strings"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

func generateKey(curve *ec.Curve, src func() uint64) modn.Scalar {
	return AlgorithmOneScalar(curve, src)
}

// labPower is the Fig. 4 measurement setup: protected circuit plus the
// oscilloscope noise floor calibrated so the unprotected-algorithm DPA
// needs on the order of 200 traces (paper §7).
func labPower(seed uint64) power.Config {
	cfg := power.ProtectedChip(seed)
	cfg.NoiseSigma = LabNoiseSigma
	return cfg
}

func newDPATarget(t testing.TB, rpc bool, seed uint64) *Target {
	t.Helper()
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(seed).Uint64)
	return NewTarget(curve, key,
		coproc.ProgramOptions{RPC: rpc, XOnly: true},
		coproc.DefaultTiming(), labPower(seed), seed+7777)
}

func TestMirrorTracksMicrocodeRegisters(t *testing.T) {
	// The attacker's value-level model must agree with the simulator's
	// register file after every iteration, in all mask settings.
	curve := ec.K163()
	for _, rpc := range []bool{false, true} {
		tgt := newDPATarget(t, rpc, 42)
		p := curve.RandomPoint(rng.NewDRBG(1).Uint64)

		var lambda, mu gf2m.Element
		if rpc {
			lambda, mu = tgt.Masks(5)
		}
		m := newMirror(p.X, lambda, mu, rpc)
		for i := 162; i >= 0; i-- {
			m.step(tgt.Key.Bit(i), p.X, curve.B)
		}

		cpu := coproc.NewCPU(tgt.Timing)
		cpu.Rand = rng.NewDRBG(tgt.traceSeed(5)).Uint64
		cpu.SetOperandConstants(p.X, curve.B, p.Y)
		// Snapshot the ladder state registers at the first
		// post-ladder cycle (before post-processing clobbers them).
		var snap [4]gf2m.Element
		taken := false
		sawLadder := false
		cpu.Probe = func(ev *coproc.CycleEvent) {
			if ev.Iteration >= 0 {
				sawLadder = true
				return
			}
			if sawLadder && !taken {
				for ri := range snap {
					snap[ri] = cpu.Reg(ri)
				}
				taken = true
			}
		}
		if _, err := cpu.Run(tgt.Program(), tgt.Key); err != nil {
			t.Fatal(err)
		}
		if !taken {
			t.Fatal("never reached post-processing")
		}
		for ri := 0; ri < 4; ri++ {
			if !m.r[ri].Equal(snap[ri]) {
				t.Fatalf("rpc=%v: mirror register %d diverged from the register file", rpc, ri)
			}
		}
	}
}

func TestCPARecoversKeyWithoutRPC(t *testing.T) {
	// Paper §7: "When the countermeasure is disabled, a DPA attack
	// succeeds with as low as 200 traces."
	tgt := newDPATarget(t, false, 1)
	camp, err := tgt.AcquireCampaign(300, 160, 153, rng.NewDRBG(2).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPA(camp, CPAOptions{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("CPA without RPC failed: recovered %v, true %v, scores %v",
			res.Recovered, res.True, res.Scores)
	}
}

func TestCPASucceedsWithKnownRandomness(t *testing.T) {
	// Paper §7: "When the countermeasure is enabled, but the
	// randomness is known, the attack also succeeds. ... The fact that
	// the attack works in this lab setting provides confidence on the
	// soundness of the attack."
	tgt := newDPATarget(t, true, 3)
	camp, err := tgt.AcquireCampaign(300, 160, 153, rng.NewDRBG(4).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPA(camp, CPAOptions{Bits: 8, KnownMasks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("white-box CPA with known masks failed: %v vs %v", res.Recovered, res.True)
	}
}

func TestCPAFailsWithSecretRandomness(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign; skipped in -short mode")
	}
	// Paper §7: "When the countermeasure is enabled, and the
	// randomness is unknown, the attack does not succeed." The test
	// uses 1 500 traces; the benchmark harness pushes to 20 000.
	tgt := newDPATarget(t, true, 5)
	camp, err := tgt.AcquireCampaign(1500, 160, 153, rng.NewDRBG(6).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPA(camp, CPAOptions{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success() {
		t.Fatal("CPA succeeded against enabled RPC with secret randomness")
	}
	// The recovered bits should be near coin-flipping, certainly not
	// systematically correct.
	if res.BitAccuracy() > 0.90 {
		t.Fatalf("CPA against RPC achieved %.0f%% bit accuracy; countermeasure ineffective",
			res.BitAccuracy()*100)
	}
}

func TestTracesToSuccessOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign; skipped in -short mode")
	}
	// The unprotected configuration must need more than a handful of
	// traces (the noise floor is real) but succeed within a few
	// hundred (the paper's ~200).
	tgt := newDPATarget(t, false, 8)
	sizes := []int{8, 50, 150, 300, 600}
	n, res, err := TracesToSuccess(tgt, sizes, 6, CPAOptions{}, rng.NewDRBG(9).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 {
		t.Fatalf("DPA never succeeded; last result %v vs %v", res.Recovered, res.True)
	}
	if n > 600 {
		t.Fatalf("DPA needed %d traces; calibration drifted from the paper's ~200", n)
	}
}

func TestSPAUnbalancedMuxRecoversFullKey(t *testing.T) {
	// Paper §6: without balanced encoding, the 164-mux control network
	// paints the key bit into every iteration's power signature.
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(11).Uint64)
	cfg := power.ProtectedChip(11)
	cfg.BalancedMux = false
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), cfg, 1111)
	res, err := SPA(tgt, curve.Generator(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() != 1.0 {
		t.Fatalf("single-trace SPA against unbalanced muxes: accuracy %.3f, want 1.0", res.Accuracy())
	}
}

func TestSPADataDependentClockGatingRecoversFullKey(t *testing.T) {
	// Paper §6: "overly aggressive clock gating ... thereby enabling
	// an SPA."
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(12).Uint64)
	cfg := power.ProtectedChip(12)
	cfg.DataDepClockGating = true
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), cfg, 2222)
	res, err := SPA(tgt, curve.Generator(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() != 1.0 {
		t.Fatalf("SPA against data-dependent clock gating: accuracy %.3f, want 1.0", res.Accuracy())
	}
}

func TestSPABalancedDesignResists(t *testing.T) {
	// The protected design: single-trace SPA must be near coin
	// flipping.
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(13).Uint64)
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), power.ProtectedChip(13), 3333)
	res, err := SPA(tgt, curve.Generator(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() > 0.75 {
		t.Fatalf("single-trace SPA against the protected design: accuracy %.3f", res.Accuracy())
	}
}

func TestSPAProfilingExploitsResidualImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign; skipped in -short mode")
	}
	// Paper §7: "We identified a complex attack that could extract the
	// key since a small source of SPA leakage was detected ... he has
	// to perform a complex profiling phase." Averaging traces defeats
	// the noise and exposes the residual layout imbalance.
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(14).Uint64)
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), power.ProtectedChip(14), 4444)
	res, err := SPAProfiled(tgt, curve.Generator(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy() < 0.95 {
		t.Fatalf("profiled SPA on residual imbalance: accuracy %.3f, want >= 0.95", res.Accuracy())
	}
	// With the imbalance engineered away, even profiling fails.
	clean := power.ProtectedChip(15)
	clean.ResidualImbalance = 0
	tgt2 := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), clean, 5555)
	res2, err := SPAProfiled(tgt2, curve.Generator(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accuracy() > 0.75 {
		t.Fatalf("profiled SPA succeeded (%.3f) without any imbalance", res2.Accuracy())
	}
}

func TestTimingAttack(t *testing.T) {
	curve := ec.K163()
	rep := TimingAttack(curve, coproc.DefaultTiming(), 200, rng.NewDRBG(16).Uint64)
	if rep.LadderVariance != 0 {
		t.Fatalf("ladder cycle variance %v, want 0", rep.LadderVariance)
	}
	// The correlation is below 1 only because the bit length of the
	// scalar varies a little too; 0.95+ still pins the Hamming weight.
	if rep.DAHWCorrelation < 0.95 {
		t.Fatalf("double-and-add latency/HW correlation %.3f; the baseline must leak", rep.DAHWCorrelation)
	}
	if rep.DARecoveredHWError > 2.0 {
		t.Fatalf("timing attacker's HW estimate off by %.2f bits on average", rep.DARecoveredHWError)
	}
	if rep.DAMinCycles >= rep.DAMaxCycles {
		t.Fatal("double-and-add latency shows no spread")
	}
}

func TestVerifyConstantTimeOnSimulator(t *testing.T) {
	curve := ec.K163()
	tgt := newDPATarget(t, true, 17)
	src := rng.NewDRBG(18).Uint64
	keys := []modn.Scalar{modn.FromUint64(1)}
	for i := 0; i < 5; i++ {
		keys = append(keys, curve.Order.RandNonZero(src))
	}
	distinct, err := VerifyConstantTime(tgt, keys, curve.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct) != 1 {
		t.Fatalf("observed %d distinct cycle counts %v, want 1", len(distinct), distinct)
	}
}

func TestTVLAUnprotectedLeaks(t *testing.T) {
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(19).Uint64)
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: false, XOnly: true},
		coproc.DefaultTiming(), labPower(19), 6666)
	src := rng.NewDRBG(20).Uint64
	res, err := TVLA(tgt, FixedPoint(curve), 200, 160, 157, func() modn.Scalar { return generateKey(curve, src) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaks {
		t.Fatalf("TVLA found no leakage in the unprotected design (max |t| = %.2f)", res.MaxT)
	}
	if res.MaxT < 6 {
		t.Fatalf("unprotected max |t| = %.2f suspiciously low", res.MaxT)
	}
}

func TestTVLAProtectedPasses(t *testing.T) {
	curve := ec.K163()
	key := generateKey(curve, rng.NewDRBG(21).Uint64)
	tgt := NewTarget(curve, key, coproc.ProgramOptions{RPC: true, XOnly: true},
		coproc.DefaultTiming(), labPower(21), 7777)
	src := rng.NewDRBG(22).Uint64
	res, err := TVLA(tgt, FixedPoint(curve), 200, 160, 157, func() modn.Scalar { return generateKey(curve, src) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaks {
		t.Fatalf("protected design leaks: max |t| = %.2f at sample %d (%d points)",
			res.MaxT, res.MaxTSample, res.LeakyPoints)
	}
}

func TestCPAInputValidation(t *testing.T) {
	tgt := newDPATarget(t, false, 23)
	camp, err := tgt.AcquireCampaign(4, 160, 159, rng.NewDRBG(24).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CPA(camp, CPAOptions{Bits: 0}); err == nil {
		t.Fatal("Bits=0 accepted")
	}
	if _, err := CPA(camp, CPAOptions{Bits: 50}); err == nil {
		t.Fatal("window too small accepted")
	}
	// Wrong prefix must be rejected, not silently mis-attacked.
	if _, err := CPA(camp, CPAOptions{Bits: 1, KnownPrefix: []uint{1, 1}}); err == nil {
		t.Fatal("wrong key prefix accepted")
	}
	// So must a ragged set, in either mode, before any column is read.
	ragged := *camp
	ragged.Set = &trace.Set{Traces: append(camp.Set.Traces[:3:3], trace.Trace{Samples: camp.Set.Traces[3].Samples[:1]})}
	for _, pre := range []string{PreprocessNone, PreprocessCenteredProduct} {
		if _, err := CPA(&ragged, CPAOptions{Bits: 1, Preprocess: pre}); !errors.Is(err, trace.ErrEmptySet) {
			t.Fatalf("preprocess %q: ragged set gave %v, want trace.ErrEmptySet", pre, err)
		}
	}
}

func TestMasksAreReproducibleAndPerTrace(t *testing.T) {
	tgt := newDPATarget(t, true, 25)
	l1, m1 := tgt.Masks(0)
	l1b, m1b := tgt.Masks(0)
	if !l1.Equal(l1b) || !m1.Equal(m1b) {
		t.Fatal("mask replay not deterministic")
	}
	l2, m2 := tgt.Masks(1)
	if l1.Equal(l2) && m1.Equal(m2) {
		t.Fatal("masks identical across traces")
	}
	if l1.IsZero() || m1.IsZero() {
		t.Fatal("zero mask drawn")
	}
}

func TestSuccessRateCurveMonotoneIsh(t *testing.T) {
	// The success rate must rise from ~0 at tiny campaigns to 1 at
	// large ones for the unprotected configuration — the standard
	// DPA evaluation figure.
	mk := func(trial uint64) *Target { return newDPATarget(t, false, 100+trial) }
	curve, err := SuccessRateCurve(mk, []int{10, 400}, 4, 3, CPAOptions{}, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("got %d points", len(curve))
	}
	if curve[1].SuccessRate < curve[0].SuccessRate {
		t.Fatalf("success rate fell with more traces: %+v", curve)
	}
	if curve[1].SuccessRate < 0.66 {
		t.Fatalf("400-trace success rate %.2f too low", curve[1].SuccessRate)
	}
	if _, err := SuccessRateCurve(mk, nil, 4, 3, CPAOptions{}, 1); err == nil {
		t.Fatal("empty sizes accepted")
	}
}

// TestNegativeShardsRefused: every campaign entry point refuses a
// negative Target.Shards by name instead of falling back to the
// default layout.
func TestNegativeShardsRefused(t *testing.T) {
	tgt := newDPATarget(t, false, 11)
	tgt.Shards = -1
	src := rng.NewDRBG(1).Uint64
	randKey := func() modn.Scalar { return AlgorithmOneScalar(tgt.Curve, src) }
	p := FixedPoint(tgt.Curve)
	for name, run := range map[string]func() error{
		"TVLA":      func() error { _, err := TVLA(tgt, p, 10, 160, 158, randKey); return err },
		"TVLAUntil": func() error { _, err := TVLAUntil(tgt, p, 10, 5, 160, 158, randKey); return err },
		"LeakageMap": func() error {
			_, err := LeakageMap(tgt, p, 10, 160, 158, randKey)
			return err
		},
		"AcquireCampaign": func() error { _, err := tgt.AcquireCampaign(4, 160, 158, src); return err },
		"SPAProfiled":     func() error { _, err := SPAProfiled(tgt, p, 2); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "Target.Shards") {
			t.Errorf("%s: err = %v, want a refusal naming Target.Shards", name, err)
		}
	}
}
