package coproc

import (
	"fmt"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// benchScalar is a fixed full-length scalar (leading-one form) so the
// ladder benchmarks always execute the same microcode path.
var benchScalar = modn.MustScalarFromHex("2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8")

// BenchmarkRunMALU measures one MUL instruction through the
// digit-serial MALU model — operand load, ceil(163/d) digit cycles,
// writeback — the single most executed code path in the simulator
// (11 MALU ops per ladder iteration, 163 iterations per point mul),
// after the two single-cycle loads that bring its operands in from the
// constant ROM.
func BenchmarkRunMALU(b *testing.B) {
	cpu := NewCPU(DefaultTiming())
	cpu.Probe = func(*CycleEvent) {}
	d := rng.NewDRBG(7)
	cpu.SetOperandConstants(ec.K163().RandomPoint(d.Uint64).X, ec.K163().RandomPoint(d.Uint64).Y, gf2m.Zero())
	prog := &Program{Instrs: []Instr{
		{Op: OpLoadConst, Rd: 0, Ra: ConstX, KeyBit: -1, Iteration: -1},
		{Op: OpLoadConst, Rd: 1, Ra: ConstB, KeyBit: -1, Iteration: -1},
		{Op: OpMul, Rd: 2, Ra: 0, Rb: 1, KeyBit: -1, Iteration: -1},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(prog, benchScalar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointMul measures a full unprotected x-only point
// multiplication (163 ladder iterations + Itoh–Tsujii conversion,
// ~86k simulated cycles) with a no-op probe attached: the evented
// simulation cost every campaign trace pays before any power modeling.
func BenchmarkPointMul(b *testing.B) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{XOnly: true})
	cpu := NewCPU(DefaultTiming())
	cpu.Probe = func(*CycleEvent) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		n, err := cpu.Run(prog, benchScalar)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(n), "cycles/PM")
		}
	}
}

// BenchmarkPointMulByDigitSize is BenchmarkPointMul at each digit size
// designlab's grids reach. Per MUL the MALU builds a partial-product
// table of 16·⌈d/4⌉ entries and streams ⌈163/d⌉ digit cycles through
// it, so the table's share of the cost grows with d.
func BenchmarkPointMulByDigitSize(b *testing.B) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{XOnly: true})
	for _, d := range []int{1, 2, 4, 8, 16, 32, 61} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			cpu := NewCPU(Timing{DigitSize: d, MulOverhead: 2, SingleCycle: 1})
			cpu.Probe = func(*CycleEvent) {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
				if _, err := cpu.Run(prog, benchScalar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointMulRPC measures the protected (randomized projective
// coordinates) variant, which adds the TRNG loads and the mask
// multiplication.
func BenchmarkPointMulRPC(b *testing.B) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	cpu := NewCPU(DefaultTiming())
	cpu.Probe = func(*CycleEvent) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Rand = rng.NewDRBG(uint64(i)).Uint64
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		if _, err := cpu.Run(prog, benchScalar); err != nil {
			b.Fatal(err)
		}
	}
}
