package gf2m

import (
	"testing"

	"medsec/internal/rng"
)

// Benchmark operands: fixed, full-width pseudo-random elements so every
// run measures the same bit patterns (branch-free code means the data
// barely matters, but determinism keeps benchstat comparisons clean).
var (
	benchA, benchB Element
	benchSink      Element
)

func init() {
	d := rng.NewDRBG(0xbe0c)
	benchA = FromWords(d.Uint64(), d.Uint64(), d.Uint64())
	benchB = FromWords(d.Uint64(), d.Uint64(), d.Uint64())
}

// BenchmarkMul/Sqr/Inv live in gf2m_test.go and the multiplier sweep in
// mulsweep_test.go; this file adds the remaining field operations.

func BenchmarkSqrt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = Sqrt(benchA)
	}
}

func BenchmarkShlMod(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = ShlMod(benchA, 4)
	}
}
