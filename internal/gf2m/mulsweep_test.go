package gf2m

import (
	"testing"

	"medsec/internal/rng"
)

// Multiplier-configuration sweep. The production multiplier pins two
// tuning choices:
//
//   - one level of 3-word Karatsuba (6 word products) over schoolbook
//     (9 word products) — deeper recursion is structurally unavailable
//     at 163 bits: the operands are only 3 words, so the next level
//     would split single words;
//   - a 4-bit comb window (16-entry table, 16 lookups per word
//     product) over 2-bit (4-entry, 32 lookups) and 8-bit (256-entry,
//     8 lookups).
//
// The variants below re-implement the rejected configurations so the
// crossover stays measured, not asserted. On the reference host the
// sweep reads:
//
//	karatsuba-w4 (pinned)   ~269 ns/op
//	karatsuba-w2            ~387 ns/op  (2x lookups dominate)
//	karatsuba-w8           ~1627 ns/op  (127 shift/XOR table builds
//	                                     per operand word swamp the
//	                                     halved lookups at one-shot
//	                                     use; an 8-bit window could
//	                                     only win if a table were
//	                                     reused ~10+ times, which the
//	                                     MALU's operand churn never
//	                                     reaches)
//	schoolbook-w4           ~312 ns/op  (9 vs 6 word products)
//
// Correctness of every variant is pinned against the production path
// in TestMulSweepVariantsAgree, so the benchmark numbers compare
// equal-output implementations.

// --- 2-bit window comb ---

type wordTab2 [4]uint64

func combTab2(x uint64) wordTab2 {
	var u wordTab2
	u[1] = x
	u[2] = x << 1
	u[3] = u[2] ^ x
	return u
}

func clmulTab2(u *wordTab2, x, y uint64) (hi, lo uint64) {
	lo = u[y&0x3]
	for i := uint(2); i < 64; i += 2 {
		v := u[(y>>i)&0x3]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// Truncation correction: the table's x<<1 loses bit 63 of x,
	// contributed wherever bit 1 of a window of y is set.
	const comb = 0x5555555555555555
	z := x >> 63
	hi ^= ((y >> 1) & comb) & (-z)
	return hi, lo
}

// --- 8-bit window comb ---

type wordTab8 [256]uint64

func combTab8(x uint64) wordTab8 {
	var u wordTab8
	u[1] = x
	for i := 2; i < 256; i += 2 {
		u[i] = u[i/2] << 1
		u[i+1] = u[i] ^ x
	}
	return u
}

func clmulTab8(u *wordTab8, x, y uint64) (hi, lo uint64) {
	lo = u[y&0xff]
	for i := uint(8); i < 64; i += 8 {
		v := u[(y>>i)&0xff]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// Truncation correction for window bits 1..7.
	const comb = 0x0101010101010101
	for k := uint(1); k < 8; k++ {
		z := x >> (64 - k)
		w := (y >> k) & comb
		var t uint64
		for j := uint(0); j < 7; j++ {
			t ^= (w << j) & (-(z >> j & 1))
		}
		hi ^= t
	}
	return hi, lo
}

// mulKaratsubaW builds the 6-word product with the production Karatsuba
// structure over a pluggable word multiplier.
func mulKaratsubaW(a, b Element, clmul func(x, y uint64) (hi, lo uint64)) [6]uint64 {
	h0, l0 := clmul(a[0], b[0])
	h1, l1 := clmul(a[1], b[1])
	h2, l2 := clmul(a[2], b[2])
	h01, l01 := clmul(a[0]^a[1], b[0]^b[1])
	h02, l02 := clmul(a[0]^a[2], b[0]^b[2])
	h12, l12 := clmul(a[1]^a[2], b[1]^b[2])
	m1l, m1h := l01^l0^l1, h01^h0^h1
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2
	m3l, m3h := l12^l1^l2, h12^h1^h2
	return [6]uint64{l0, h0 ^ m1l, m1h ^ m2l, m2h ^ m3l, m3h ^ l2, h2}
}

// mulSchoolbook is the 9-product comparison point, sharing one comb
// table per left-operand word across its row (the fair schoolbook: the
// naive one would rebuild tables per product).
func mulSchoolbook(a, b Element) [6]uint64 {
	var out [6]uint64
	for i := 0; i < 3; i++ {
		u := combTab(a[i])
		for j := 0; j < 3; j++ {
			hi, lo := clmulTab(&u, a[i], b[j])
			out[i+j] ^= lo
			out[i+j+1] ^= hi
		}
	}
	return out
}

func clmul64W2(x, y uint64) (uint64, uint64) {
	u := combTab2(x)
	return clmulTab2(&u, x, y)
}

func clmul64W8(x, y uint64) (uint64, uint64) {
	u := combTab8(x)
	return clmulTab8(&u, x, y)
}

func TestMulSweepVariantsAgree(t *testing.T) {
	d := rng.NewDRBG(0x5eed)
	for i := 0; i < 2000; i++ {
		a := FromWords(d.Uint64(), d.Uint64(), d.Uint64())
		b := FromWords(d.Uint64(), d.Uint64(), d.Uint64())
		want := Mul(a, b)
		for name, raw := range map[string][6]uint64{
			"karatsuba-w2": mulKaratsubaW(a, b, clmul64W2),
			"karatsuba-w8": mulKaratsubaW(a, b, clmul64W8),
			"schoolbook":   mulSchoolbook(a, b),
		} {
			if got := reduce(raw); got != want {
				t.Fatalf("%s: Mul(%v, %v) = %v, want %v", name, a, b, got, want)
			}
		}
	}
}

func BenchmarkMulSweep(b *testing.B) {
	b.Run("karatsuba-w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = Mul(benchA, benchB)
		}
	})
	b.Run("karatsuba-w2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = reduce(mulKaratsubaW(benchA, benchB, clmul64W2))
		}
	})
	b.Run("karatsuba-w8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = reduce(mulKaratsubaW(benchA, benchB, clmul64W8))
		}
	})
	b.Run("schoolbook-w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = reduce(mulSchoolbook(benchA, benchB))
		}
	})
}
