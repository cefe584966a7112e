package coproc

import (
	"math/rand"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

func newTestCPU(t Timing, seed uint64) *CPU {
	c := NewCPU(t)
	d := rng.NewDRBG(seed)
	c.Rand = d.Uint64
	return c
}

func setupPoint(c *CPU, curve *ec.Curve, p ec.Point) {
	c.SetOperandConstants(p.X, curve.B, p.Y)
}

// runPM runs a full point multiplication on the simulator and returns
// the affine result.
func runPM(t *testing.T, cpu *CPU, prog *Program, curve *ec.Curve, k modn.Scalar, p ec.Point) ec.Point {
	t.Helper()
	setupPoint(cpu, curve, p)
	if _, err := cpu.Run(prog, k); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if prog.XOnly {
		return ec.Point{X: cpu.ResultX(prog)}
	}
	return ec.Point{X: cpu.ResultX(prog), Y: cpu.ResultY(prog)}
}

func TestMicrocodeMatchesSoftwareLadder(t *testing.T) {
	curve := ec.K163()
	r := rand.New(rand.NewSource(1))
	for _, opt := range []ProgramOptions{
		{},
		{RPC: true},
		{XOnly: true},
		{RPC: true, XOnly: true},
	} {
		prog := BuildLadderProgram(opt)
		for i := 0; i < 4; i++ {
			k := curve.Order.RandNonZero(r.Uint64)
			p := curve.RandomPoint(r.Uint64)
			want, err := curve.ScalarMulLadder(k, p, ec.LadderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cpu := newTestCPU(DefaultTiming(), uint64(i)+99)
			got := runPM(t, cpu, prog, curve, k, p)
			if !got.X.Equal(want.X) {
				t.Fatalf("opts %+v: x mismatch for k=%v", opt, k)
			}
			if !opt.XOnly && !got.Y.Equal(want.Y) {
				t.Fatalf("opts %+v: y mismatch for k=%v", opt, k)
			}
		}
	}
}

func TestMicrocodeSmallScalars(t *testing.T) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{})
	g := curve.Generator()
	for _, k := range []uint64{1, 2, 3, 7, 100} {
		cpu := newTestCPU(DefaultTiming(), k)
		got := runPM(t, cpu, prog, curve, modn.FromUint64(k), g)
		want := curve.ScalarMulDoubleAndAdd(modn.FromUint64(k), g)
		if !got.Equal(want) {
			t.Fatalf("microcode wrong for k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestCycleCountIsKeyIndependent(t *testing.T) {
	// The core timing-countermeasure claim (paper §7): same cycle
	// count for every key, and equal to the static prediction.
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true})
	tim := DefaultTiming()
	static := prog.CycleCount(tim)
	r := rand.New(rand.NewSource(2))
	g := curve.Generator()
	keys := []modn.Scalar{
		modn.FromUint64(1),                       // minimal weight
		curve.Order.Sub(modn.Zero(), modn.One()), // n-1
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, curve.Order.RandNonZero(r.Uint64))
	}
	for _, k := range keys {
		cpu := newTestCPU(tim, 7)
		setupPoint(cpu, curve, g)
		cycles, err := cpu.Run(prog, k)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != static {
			t.Fatalf("cycle count %d for k=%v, static prediction %d", cycles, k, static)
		}
	}
}

func TestOperatingPointMatchesPaper(t *testing.T) {
	// Paper §6: 847.5 kHz, 9.8 point multiplications per second
	// => ~86 480 cycles per PM with the d=4 MALU.
	prog := BuildLadderProgram(ProgramOptions{RPC: true})
	cycles := prog.CycleCount(DefaultTiming())
	const clock = 847500.0
	throughput := clock / float64(cycles)
	if throughput < 9.65 || throughput > 9.95 {
		t.Fatalf("throughput %.3f PM/s (%d cycles); paper reports 9.8", throughput, cycles)
	}
}

func TestRegisterPressure(t *testing.T) {
	// Paper §4: "Our ECC chip uses six 163-bit registers for the whole
	// point multiplication" (the ladder loop); prime-field Co-Z would
	// need 8 [6]. Post-processing may spill to scratch RAM.
	for _, opt := range []ProgramOptions{{}, {RPC: true}, {XOnly: true}} {
		prog := BuildLadderProgram(opt)
		loopRegs, ram := prog.RegisterPressure()
		if loopRegs != 6 {
			t.Fatalf("opts %+v: ladder loop uses %d registers, want 6", opt, loopRegs)
		}
		if ram > NumRAM {
			t.Fatalf("opts %+v: %d RAM words exceed the model", opt, ram)
		}
	}
	// The x-only program must not need RAM at all.
	prog := BuildLadderProgram(ProgramOptions{XOnly: true})
	if _, ram := prog.RegisterPressure(); ram != 0 {
		t.Fatalf("x-only program touches %d RAM words, want 0", ram)
	}
}

func TestDigitSerialMALUMatchesFieldMul(t *testing.T) {
	// The MALU's digit-serial algorithm must agree with gf2m.Mul for
	// every supported digit size. The Probe keeps the run evented, so
	// the product comes from the digit pipeline, not the quiet path.
	// The operands enter through the constant ROM.
	r := rand.New(rand.NewSource(3))
	prog := &Program{Instrs: []Instr{
		{Op: OpLoadConst, Rd: 0, Ra: ConstX, KeyBit: -1, Iteration: -1},
		{Op: OpLoadConst, Rd: 1, Ra: ConstB, KeyBit: -1, Iteration: -1},
		{Op: OpMul, Rd: 2, Ra: 0, Rb: 1, KeyBit: -1, Iteration: -1},
		{Op: OpSqr, Rd: 3, Ra: 0, KeyBit: -1, Iteration: -1},
	}}
	for _, d := range []int{1, 2, 4, 8, 16, 32, 61} {
		tim := Timing{DigitSize: d, MulOverhead: 2, SingleCycle: 1}
		cpu := NewCPU(tim)
		cpu.Probe = func(*CycleEvent) {}
		for i := 0; i < 5; i++ {
			a := gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64())
			b := gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64())
			cpu.SetOperandConstants(a, b, gf2m.Zero())
			if _, err := cpu.Run(prog, modn.Zero()); err != nil {
				t.Fatal(err)
			}
			if !cpu.Reg(2).Equal(gf2m.Mul(a, b)) {
				t.Fatalf("d=%d: MALU product wrong", d)
			}
			if !cpu.Reg(3).Equal(gf2m.Sqr(a)) {
				t.Fatalf("d=%d: MALU square wrong", d)
			}
		}
	}
}

func TestMALUCycleScalingWithDigitSize(t *testing.T) {
	// Latency must scale as ceil(163/d) + overhead.
	for _, d := range []int{1, 2, 4, 8, 16} {
		tim := Timing{DigitSize: d, MulOverhead: 2, SingleCycle: 1}
		want := (163+d-1)/d + 2
		if got := tim.InstrCycles(OpMul); got != want {
			t.Fatalf("d=%d: MUL takes %d cycles, want %d", d, got, want)
		}
	}
}

func TestProbeSeesEveryCycle(t *testing.T) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{})
	tim := DefaultTiming()
	cpu := newTestCPU(tim, 5)
	setupPoint(cpu, curve, curve.Generator())
	var seen int
	last := -1
	cpu.Probe = func(ev *CycleEvent) {
		if ev.Cycle != last+1 {
			t.Fatalf("cycle jump: %d -> %d", last, ev.Cycle)
		}
		last = ev.Cycle
		seen++
	}
	cycles, err := cpu.Run(prog, modn.FromUint64(12345))
	if err != nil {
		t.Fatal(err)
	}
	if seen != cycles {
		t.Fatalf("probe saw %d cycles, run reported %d", seen, cycles)
	}
}

func TestCSwapEventsCarryKeyBit(t *testing.T) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{})
	cpu := newTestCPU(DefaultTiming(), 6)
	setupPoint(cpu, curve, curve.Generator())
	k := curve.Order.RandNonZero(rng.NewDRBG(8).Uint64)
	var ctrlCycles int
	cpu.Probe = func(ev *CycleEvent) {
		if ev.Op == OpCSwap {
			if ev.KeyBit < 0 || ev.KeyBit >= 163 {
				t.Fatalf("CSWAP cycle without key bit index: %d", ev.KeyBit)
			}
			if ev.CtrlSel != k.Bit(ev.KeyBit) {
				t.Fatal("CtrlSel does not match the key bit")
			}
			ctrlCycles++
		} else if ev.KeyBit != -1 {
			t.Fatal("non-CSWAP cycle claims key control")
		}
	}
	if _, err := cpu.Run(prog, k); err != nil {
		t.Fatal(err)
	}
	if ctrlCycles != 4*LadderIterations {
		t.Fatalf("saw %d key-controlled cycles, want %d", ctrlCycles, 4*LadderIterations)
	}
}

func TestMaxCyclesStopsEarly(t *testing.T) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{})
	lc := NewLaneCPU(DefaultTiming())
	lc.MaxCycles = 1000
	runs := []LaneRun{{Key: modn.FromUint64(99), Rand: rng.NewDRBG(7).Uint64,
		Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}}
	cycles, err := lc.Run(prog, runs)
	if err != ErrStopped {
		t.Fatalf("expected ErrStopped, got %v", err)
	}
	if cycles != 1000 {
		t.Fatalf("stopped at %d cycles, want 1000", cycles)
	}
}

func TestRunErrors(t *testing.T) {
	cpu := NewCPU(DefaultTiming())
	// LoadRnd without TRNG.
	prog := &Program{Instrs: []Instr{{Op: OpLoadRnd, Rd: 0, KeyBit: -1, Iteration: -1}}}
	if _, err := cpu.Run(prog, modn.Zero()); err == nil {
		t.Fatal("OpLoadRnd without Rand accepted")
	}
	// Invalid operand address.
	prog = &Program{Instrs: []Instr{{Op: OpMove, Rd: 0, Ra: 99, KeyBit: -1, Iteration: -1}}}
	if _, err := cpu.Run(prog, modn.Zero()); err == nil {
		t.Fatal("invalid operand accepted")
	}
	// Write to constant ROM.
	prog = &Program{Instrs: []Instr{{Op: OpMove, Rd: ConstX, Ra: 0, KeyBit: -1, Iteration: -1}}}
	if _, err := cpu.Run(prog, modn.Zero()); err == nil {
		t.Fatal("write to ROM accepted")
	}
	// CSWAP without key bit.
	prog = &Program{Instrs: []Instr{{Op: OpCSwap, Rd: 0, Ra: 1, KeyBit: -1, Iteration: -1}}}
	if _, err := cpu.Run(prog, modn.Zero()); err == nil {
		t.Fatal("CSWAP without key bit accepted")
	}
	// Bad digit size.
	bad := NewCPU(Timing{DigitSize: 0, MulOverhead: 2, SingleCycle: 1})
	prog = &Program{Instrs: []Instr{{Op: OpMul, Rd: 0, Ra: 1, Rb: 2, KeyBit: -1, Iteration: -1}}}
	if _, err := bad.Run(prog, modn.Zero()); err == nil {
		t.Fatal("digit size 0 accepted")
	}
}

func TestCSwapSemantics(t *testing.T) {
	a := gf2m.FromUint64(0xaaaa)
	b := gf2m.FromUint64(0x5555)
	prog := &Program{Instrs: []Instr{
		{Op: OpLoadConst, Rd: 0, Ra: ConstX, KeyBit: -1, Iteration: -1},
		{Op: OpLoadConst, Rd: 1, Ra: ConstB, KeyBit: -1, Iteration: -1},
		{Op: OpCSwap, Rd: 0, Ra: 1, KeyBit: 0, Iteration: 0},
	}}
	for _, tc := range []struct {
		key            uint64
		wantR0, wantR1 gf2m.Element
	}{
		{0, a, b}, // key bit 0 clear: no swap
		{1, b, a}, // key bit 0 set: swap
	} {
		for _, probe := range []Probe{nil, func(*CycleEvent) {}} {
			cpu := NewCPU(DefaultTiming())
			cpu.Probe = probe
			cpu.SetOperandConstants(a, b, gf2m.Zero())
			if _, err := cpu.Run(prog, modn.FromUint64(tc.key)); err != nil {
				t.Fatal(err)
			}
			if !cpu.Reg(0).Equal(tc.wantR0) || !cpu.Reg(1).Equal(tc.wantR1) {
				t.Fatalf("key bit %d (evented=%v): CSWAP result wrong", tc.key, probe != nil)
			}
		}
	}
}

func TestInstructionStringer(t *testing.T) {
	in := Instr{Op: OpMul, Rd: 0, Ra: ConstX, Rb: RAM1}
	if got := in.String(); got != "MUL r0,c0,m1" {
		t.Fatalf("String() = %q", got)
	}
	sw := Instr{Op: OpCSwap, Rd: 0, Ra: 2, KeyBit: 42}
	if got := sw.String(); got != "CSWAP r0,r2 <k42>" {
		t.Fatalf("String() = %q", got)
	}
	for _, op := range []Op{OpNop, OpAdd, OpMul, OpSqr, OpMove, OpCSwap, OpLoadRnd, OpLoadConst, Op(200)} {
		if op.String() == "" {
			t.Fatal("empty opcode name")
		}
	}
}

func TestRPCChangesIntermediatesNotResults(t *testing.T) {
	// With RPC, two runs with different TRNG streams must produce
	// different intermediate register values but the same result —
	// the essence of the DPA countermeasure.
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	g := curve.Generator()
	k := modn.FromUint64(0xdeadbeefcafe)

	capture := func(seed uint64) (gf2m.Element, gf2m.Element) {
		cpu := newTestCPU(DefaultTiming(), seed)
		setupPoint(cpu, curve, g)
		var mid gf2m.Element
		captured := false
		cpu.Probe = func(ev *CycleEvent) {
			if !captured && ev.Iteration == 100 {
				mid = cpu.Reg(0)
				captured = true
			}
		}
		if _, err := cpu.Run(prog, k); err != nil {
			t.Fatal(err)
		}
		return mid, cpu.ResultX(prog)
	}
	mid1, res1 := capture(1)
	mid2, res2 := capture(2)
	if !res1.Equal(res2) {
		t.Fatal("RPC changed the final result")
	}
	if mid1.Equal(mid2) {
		t.Fatal("RPC did not randomize intermediates")
	}
}

func BenchmarkPointMulSimulation(b *testing.B) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true})
	cpu := newTestCPU(DefaultTiming(), 1)
	cpu.Probe = func(*CycleEvent) {}
	setupPoint(cpu, curve, curve.Generator())
	k := curve.Order.RandNonZero(rng.NewDRBG(2).Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(prog, k); err != nil {
			b.Fatal(err)
		}
	}
}
