package power

import (
	"math"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// runMetered executes one full point multiplication under the given
// configuration and returns the meter.
func runMetered(t *testing.T, cfg Config, seed uint64) (*Meter, int) {
	t.Helper()
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	model := NewModel(cfg)
	meter := NewMeter(model)
	cpu := coproc.NewCPU(coproc.DefaultTiming())
	cpu.Rand = rng.NewDRBG(seed).Uint64
	cpu.Probe = meter.Probe()
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	k := curve.Order.RandNonZero(rng.NewDRBG(seed + 1).Uint64)
	cycles, err := cpu.Run(prog, k)
	if err != nil {
		t.Fatal(err)
	}
	return meter, cycles
}

func TestCalibration50uW(t *testing.T) {
	// Paper §6: "the processor consumes 50.4 µW and uses only 5.1 µJ
	// for one point-multiplication" at 847.5 kHz and Vdd = 1 V.
	cfg := ProtectedChip(1)
	cfg.NoiseSigma = 0
	meter, _ := runMetered(t, cfg, 2)
	powerUW := meter.AvgPowerW() * 1e6
	energyUJ := meter.EnergyJ() * 1e6
	if math.Abs(powerUW-50.4) > 0.6 {
		t.Fatalf("average power %.2f µW, paper reports 50.4 µW", powerUW)
	}
	if math.Abs(energyUJ-5.1) > 0.12 {
		t.Fatalf("energy %.3f µJ per PM, paper reports 5.1 µJ", energyUJ)
	}
	// Throughput cross-check: 9.8 PM/s.
	if pmps := 1 / meter.DurationS(); math.Abs(pmps-9.8) > 0.15 {
		t.Fatalf("throughput %.2f PM/s, paper reports 9.8", pmps)
	}
}

func TestLogicStyleCosts(t *testing.T) {
	// Section 6: "side-channel resistant logic styles ... come with
	// high area and power cost". WDDL and SABL must cost a multiple of
	// CMOS, with SABL (full-custom) cheaper than WDDL.
	base := ProtectedChip(1)
	base.NoiseSigma = 0
	cmos, _ := runMetered(t, base, 3)

	wddlCfg := base
	wddlCfg.Style = WDDL
	wddl, _ := runMetered(t, wddlCfg, 3)

	sablCfg := base
	sablCfg.Style = SABL
	sabl, _ := runMetered(t, sablCfg, 3)

	rw := wddl.EnergyJ() / cmos.EnergyJ()
	rs := sabl.EnergyJ() / cmos.EnergyJ()
	if rw < 2.5 || rw > 5 {
		t.Fatalf("WDDL/CMOS power ratio %.2f outside the plausible 2.5-5x band", rw)
	}
	if rs < 2 || rs > rw {
		t.Fatalf("SABL ratio %.2f should sit between 2x and the WDDL ratio %.2f", rs, rw)
	}
}

func TestDataIndependenceOfDualRailStyles(t *testing.T) {
	// For WDDL/SABL, two different keys must give *identical* total
	// energy (zero noise): data-independent consumption is their whole
	// point. For CMOS the totals must differ.
	run := func(style LogicStyle, key uint64) float64 {
		curve := ec.K163()
		prog := coproc.BuildLadderProgram(coproc.ProgramOptions{})
		cfg := ProtectedChip(1)
		cfg.Style = style
		cfg.NoiseSigma = 0
		cfg.ResidualImbalance = 0
		model := NewModel(cfg)
		meter := NewMeter(model)
		cpu := coproc.NewCPU(coproc.DefaultTiming())
		cpu.Probe = meter.Probe()
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		if _, err := cpu.Run(prog, modn.FromUint64(key)); err != nil {
			t.Fatal(err)
		}
		return meter.EnergyJ()
	}
	for _, style := range []LogicStyle{WDDL, SABL} {
		e1 := run(style, 0xdeadbeef)
		e2 := run(style, 0x12345678)
		if e1 != e2 {
			t.Fatalf("%v: energy depends on data (%.6g vs %.6g)", style, e1, e2)
		}
	}
	if run(CMOS, 0xdeadbeef) == run(CMOS, 0x12345678) {
		t.Fatal("CMOS energy suspiciously data-independent")
	}
}

func TestVddScaling(t *testing.T) {
	cfg := ProtectedChip(1)
	cfg.NoiseSigma = 0
	low, _ := runMetered(t, cfg, 4)
	cfg.Vdd = 1.2
	high, _ := runMetered(t, cfg, 4)
	ratio := high.EnergyJ() / low.EnergyJ()
	if math.Abs(ratio-1.44) > 0.02 {
		t.Fatalf("Vdd 1.2/1.0 energy ratio %.3f, want ~1.44 (Vdd^2)", ratio)
	}
}

func TestBalancedMuxEqualizesCSwapPower(t *testing.T) {
	// Fig. 3: with balanced encoding the CSWAP cycle energy must not
	// depend on the select value (up to the residual imbalance term);
	// with raw encoding the difference is the full control network.
	ev0 := &coproc.CycleEvent{Op: coproc.OpCSwap, RegsClocked: 2, CtrlSel: 0}
	ev1 := &coproc.CycleEvent{Op: coproc.OpCSwap, RegsClocked: 2, CtrlSel: 1}

	balanced := ProtectedChip(1)
	balanced.NoiseSigma = 0
	balanced.ResidualImbalance = 0
	mb := NewModel(balanced)
	if e0, e1 := mb.CycleEnergy(ev0), mb.CycleEnergy(ev1); e0 != e1 {
		t.Fatalf("balanced mux leaks: %.4g vs %.4g", e0, e1)
	}

	raw := balanced
	raw.BalancedMux = false
	mr := NewModel(raw)
	e0, e1 := mr.CycleEnergy(ev0), mr.CycleEnergy(ev1)
	if e1 <= e0 {
		t.Fatal("raw mux encoding shows no select-dependent power")
	}
	gap := (e1 - e0) / e0
	if gap < 0.5 {
		t.Fatalf("raw mux gap only %.1f%%; should be a dominant SPA feature", gap*100)
	}

	// Residual imbalance: small but nonzero gap.
	resid := balanced
	resid.ResidualImbalance = 0.004
	mres := NewModel(resid)
	r0, r1 := mres.CycleEnergy(ev0), mres.CycleEnergy(ev1)
	if r1 <= r0 {
		t.Fatal("residual imbalance term missing")
	}
	if (r1-r0)/r0 > 0.01 {
		t.Fatal("residual imbalance implausibly large")
	}
}

func TestDataDependentClockGatingLeaks(t *testing.T) {
	ev0 := &coproc.CycleEvent{Op: coproc.OpCSwap, RegsClocked: 2, CtrlSel: 0}
	ev1 := &coproc.CycleEvent{Op: coproc.OpCSwap, RegsClocked: 2, CtrlSel: 1}
	cfg := ProtectedChip(1)
	cfg.NoiseSigma = 0
	cfg.ResidualImbalance = 0
	cfg.DataDepClockGating = true
	m := NewModel(cfg)
	e0, e1 := m.CycleEnergy(ev0), m.CycleEnergy(ev1)
	if e1 <= e0 {
		t.Fatal("data-dependent clock gating shows no key-dependent clock power")
	}
}

func TestInputIsolationSuppressesBusLeakage(t *testing.T) {
	evLight := &coproc.CycleEvent{Op: coproc.OpAdd, RegsClocked: 1, BusHW: 10}
	evHeavy := &coproc.CycleEvent{Op: coproc.OpAdd, RegsClocked: 1, BusHW: 300}
	iso := ProtectedChip(1)
	iso.NoiseSigma = 0
	mIso := NewModel(iso)
	noIso := iso
	noIso.InputIsolation = false
	mNo := NewModel(noIso)
	gapIso := mIso.CycleEnergy(evHeavy) - mIso.CycleEnergy(evLight)
	gapNo := mNo.CycleEnergy(evHeavy) - mNo.CycleEnergy(evLight)
	if gapNo <= gapIso*2 {
		t.Fatalf("isolation gap %.4g not much smaller than unisolated %.4g", gapIso, gapNo)
	}
}

func TestGlitchModelAddsDataDependence(t *testing.T) {
	ev := &coproc.CycleEvent{Op: coproc.OpMul, RegsClocked: 1, AccHD: 80, Acc01: 40}
	clean := ProtectedChip(1)
	clean.NoiseSigma = 0
	glitchy := clean
	glitchy.GlitchFree = false
	if NewModel(glitchy).CycleEnergy(ev) <= NewModel(clean).CycleEnergy(ev) {
		t.Fatal("glitches do not add energy")
	}
}

func TestNoiseStatistics(t *testing.T) {
	cfg := ProtectedChip(7)
	cfg.NoiseSigma = 0.1
	m := NewModel(cfg)
	ev := &coproc.CycleEvent{Op: coproc.OpNop}
	base := leakageUnits * unitEnergyJ
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.CycleEnergy(ev) - base
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	wantSD := 0.1 * 59.47e-12
	if math.Abs(mean) > wantSD/10 {
		t.Fatalf("noise mean %.3g not ~0", mean)
	}
	if math.Abs(sd-wantSD)/wantSD > 0.05 {
		t.Fatalf("noise sd %.3g, want %.3g", sd, wantSD)
	}
}

func TestMeterBookkeeping(t *testing.T) {
	cfg := ProtectedChip(1)
	cfg.NoiseSigma = 0
	m := NewModel(cfg)
	meter := NewMeter(m)
	probe := meter.Probe()
	ev := &coproc.CycleEvent{Op: coproc.OpNop}
	for i := 0; i < 10; i++ {
		probe(ev)
	}
	if meter.Cycles() != 10 {
		t.Fatalf("cycles %d", meter.Cycles())
	}
	if meter.EnergyJ() <= 0 {
		t.Fatal("no energy accumulated")
	}
	if meter.AvgPowerW() <= 0 {
		t.Fatal("no power")
	}
}

func TestLogicStyleStrings(t *testing.T) {
	for _, s := range []LogicStyle{CMOS, WDDL, SABL, LogicStyle(9)} {
		if s.String() == "" {
			t.Fatal("empty style name")
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := NewModel(Config{})
	if m.cfg.ClockHz != DefaultClockHz {
		t.Fatal("clock default not applied")
	}
	if m.cfg.Vdd != 1.0 {
		t.Fatal("Vdd default not applied")
	}
}
