package design

import (
	"math"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// newChip mints the paper's chip with both seeds set to seed and the
// noise off, so unit tests read deterministic energies. mut, if
// non-nil, adjusts the point before the build.
func newChip(t *testing.T, seed uint64, mut func(*Point)) *Chip {
	t.Helper()
	p := Defaults()
	p.Seed = seed
	p.TRNGSeed = seed
	p.NoiseSigma = 0
	if mut != nil {
		mut(&p)
	}
	st, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPointMulCorrectness(t *testing.T) {
	chip := newChip(t, 1, nil)
	curve := chip.Curve()
	src := rng.NewDRBG(2).Uint64
	for i := 0; i < 3; i++ {
		k := curve.Order.RandNonZero(src)
		p := curve.RandomPoint(src)
		got, err := chip.ScalarMul(k, p)
		if err != nil {
			t.Fatal(err)
		}
		want := curve.ScalarMulDoubleAndAdd(k, p)
		if !got.Equal(want) {
			t.Fatalf("hardware ScalarMul wrong for k=%v", k)
		}
		x, err := chip.XOnlyMul(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(want.X) {
			t.Fatal("XOnlyMul wrong")
		}
	}
	// k = 0 conventions.
	if p, err := chip.ScalarMul(modn.Zero(), curve.Generator()); err != nil || !p.Inf {
		t.Fatalf("0*P: %v %v", p, err)
	}
	if _, err := chip.XOnlyMul(modn.Zero(), curve.Generator()); err == nil {
		t.Fatal("x-only of O accepted")
	}
}

func TestChipOperatingPoint(t *testing.T) {
	// E1, end to end through the public API: 5.1 µJ, 50.4 µW,
	// 9.8 PM/s at 847.5 kHz.
	chip := newChip(t, 3, nil)
	curve := chip.Curve()
	k := chip.GenerateScalar()
	if _, err := chip.ScalarMul(k, curve.Generator()); err != nil {
		t.Fatal(err)
	}
	r := chip.Last
	if math.Abs(r.EnergyJ*1e6-5.1) > 0.15 {
		t.Fatalf("energy %.3f µJ, want ~5.1", r.EnergyJ*1e6)
	}
	if math.Abs(r.AvgPowerW*1e6-50.4) > 0.8 {
		t.Fatalf("power %.2f µW, want ~50.4", r.AvgPowerW*1e6)
	}
	if pmps := 1 / r.DurationS; math.Abs(pmps-9.8) > 0.15 {
		t.Fatalf("throughput %.2f PM/s, want ~9.8", pmps)
	}
	// Totals accumulate.
	if _, err := chip.ScalarMul(k, curve.Generator()); err != nil {
		t.Fatal(err)
	}
	if chip.Total.Cycles != 2*r.Cycles {
		t.Fatal("Total.Cycles not accumulating")
	}
	chip.ResetMeters()
	if chip.Total.Cycles != 0 || chip.Last.Cycles != 0 {
		t.Fatal("ResetMeters incomplete")
	}
}

func TestProtocolRunsOnHardware(t *testing.T) {
	// The protocol layer driven by the simulated chip end to end,
	// with energy accounting: the tag's session cost must be
	// 2 PMs ≈ 10.2 µJ of computation.
	chip := newChip(t, 4, nil)
	curve := chip.Curve()
	src := rng.NewDRBG(5).Uint64
	sw := &protocol.SoftwareMultiplier{Curve: curve, Rand: src} // reader side in software
	rdr, err := protocol.NewReader(curve, sw, src)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := protocol.NewTag(curve, chip, src, rdr.Pub)
	if err != nil {
		t.Fatal(err)
	}
	rdr.Register(tag.Pub)
	chip.ResetMeters() // discard key-generation energy
	tag.Ledger = protocol.Ledger{}
	idx, err := protocol.RunIdentification(tag, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("identified %d", idx)
	}
	if tag.Ledger.PointMuls != 2 {
		t.Fatalf("tag did %d PMs", tag.Ledger.PointMuls)
	}
	if e := chip.Total.EnergyJ * 1e6; math.Abs(e-10.2) > 0.4 {
		t.Fatalf("tag session computation energy %.2f µJ, want ~10.2 (2 x 5.1)", e)
	}
}

func TestEvaluationTargetWorkflow(t *testing.T) {
	// The Fig. 4 hook: a quick CPA against the point's own target,
	// keyed by the chip, must behave per §7 (succeeds when RPC is off).
	p := Defaults()
	p.Seed = 6
	p.TRNGSeed = 6
	p.RPC = false
	p.XOnly = true
	p.NoiseSigma = LabNoiseSigma
	st := p.MustBuild()
	chip, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := st.Target(chip.GenerateScalar())
	if err != nil {
		t.Fatal(err)
	}
	camp, err := tgt.AcquireCampaign(600, 160, 157, rng.NewDRBG(7).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sca.CPA(camp, sca.CPAOptions{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("CPA through the design API failed: %v vs %v", res.Recovered, res.True)
	}
}

func TestInputValidation(t *testing.T) {
	chip := newChip(t, 8, nil)
	curve := chip.Curve()
	if _, err := chip.ScalarMul(modn.One(), ec.Infinity()); err == nil {
		t.Fatal("O accepted as base point")
	}
	if _, err := chip.ScalarMul(curve.Order.N(), curve.Generator()); err == nil {
		t.Fatal("unreduced scalar accepted")
	}
}

func TestGenerateScalarForm(t *testing.T) {
	chip := newChip(t, 9, nil)
	for i := 0; i < 20; i++ {
		k := chip.GenerateScalar()
		if k.Bit(162) != 0 || k.Bit(161) != 1 {
			t.Fatalf("scalar %v not in Algorithm 1 form", k)
		}
		if k.Cmp(chip.Curve().Order.N()) >= 0 {
			t.Fatal("scalar not reduced")
		}
	}
}

func TestDigitSizeAffectsThroughput(t *testing.T) {
	// Architecture-level knob exposed end to end: a d = 16 chip must
	// be faster and higher-power than the d = 4 chip.
	chip4 := newChip(t, 10, nil)
	chip16 := newChip(t, 10, func(p *Point) { p.DigitSize = 16 })
	k := chip4.GenerateScalar()
	g := chip4.Curve().Generator()
	if _, err := chip4.ScalarMul(k, g); err != nil {
		t.Fatal(err)
	}
	if _, err := chip16.ScalarMul(k, g); err != nil {
		t.Fatal(err)
	}
	if chip16.Last.Cycles >= chip4.Last.Cycles {
		t.Fatal("d=16 not faster than d=4")
	}
}

// TestChipOutlivesItsStack mints a chip, then has a Cache rebuild the
// minting Stack in place as a d = 16 WDDL point with other seeds. The
// chip must keep metering the point it was minted at, equal to a chip
// minted from a fresh build of that point.
func TestChipOutlivesItsStack(t *testing.T) {
	p := Defaults()
	p.NoiseSigma = 0
	var st Stack
	cache := NewCache()
	if err := cache.BuildInto(&st, p); err != nil {
		t.Fatal(err)
	}
	chip, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.DigitSize = 16
	q.Logic = "WDDL"
	q.Seed, q.TRNGSeed = 7, 7
	if err := cache.BuildInto(&st, q); err != nil {
		t.Fatal(err)
	}
	fresh := newChip(t, 1, nil)
	for _, c := range []*Chip{chip, fresh} {
		if _, err := c.ScalarMul(c.GenerateScalar(), c.Curve().Generator()); err != nil {
			t.Fatal(err)
		}
	}
	if chip.Last != fresh.Last {
		t.Fatalf("chip changed with its rebuilt Stack: %+v, want %+v", chip.Last, fresh.Last)
	}
}
