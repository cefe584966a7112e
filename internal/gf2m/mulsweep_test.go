package gf2m

import (
	"testing"

	"medsec/internal/rng"
)

// Multiplier-configuration sweep of the portable path. On amd64 CPUs
// with PCLMULQDQ, Mul is mulCLMUL: the 3×3-word schoolbook in nine
// PCLMULQDQ, then words 3-5 fold down by three more against
// x^192 mod f = x^29·(x^7+x^6+x^3+1), and word 2's top 29 bits once
// more in registers. Its rejected pairings (the 6-product Karatsuba,
// and either product reduced in general-purpose registers) were
// measured by this sweep and deleted; CHANGES.md holds their last
// numbers.
//
// The portable path (every other CPU and GOARCH, the comb-w4 row)
// pins three choices:
//
//   - a whole-operand left-to-right comb (Hankerson–Menezes–Vanstone
//     Alg. 2.36): one 16-entry table of u·b, 3 words per entry, then 41
//     4-bit window lookups over a and 15 shifts of a 6-word
//     accumulator;
//   - its table stored as three 16-word planes, one per product word,
//     rather than as [16][3]uint64 rows;
//   - 4-bit windows, the width the per-word rows below also favour.
//
// The variants below re-implement the rejected configurations so the
// crossover stays measured, not asserted:
//
//   - karatsuba-w4 is the comb's predecessor: one level of 3-word
//     Karatsuba, each word product a 4-bit windowed comb over its own
//     16-entry table with a high-bits correction. That is six table
//     builds and 89 lookups per product. Karatsuba's saving is in
//     hardware area; a software comb over the whole operand needs one
//     table and no word products;
//   - karatsuba-w2 and karatsuba-w8 change its window width;
//   - schoolbook-w4 is the 9-product per-word comb;
//   - comb-w4-rows is the production comb with [16][3]uint64 rows.
//
// The sqr-table and sqr rows price the squarer the same way: the
// portable byte-table interleave against Sqr, which is three
// PCLMULQDQ and mulCLMUL's fold where the CPU has the instruction.
//
// On a shared 2-vCPU x86-64 host with PCLMULQDQ (go test -bench
// MulSweep -count 5; medians, each row one product of fixed operands
// per iteration) the sweep reads:
//
//	comb-w4 (portable)   ~211 ns/op
//	comb-w4-rows         ~256 ns/op  (same scan; the planes index one
//	                                  16-word array per product word)
//	karatsuba-w4         ~448 ns/op
//	karatsuba-w2         ~599 ns/op  (2x lookups dominate)
//	karatsuba-w8        ~2548 ns/op  (127 shift/XOR table builds
//	                                  per operand word swamp the
//	                                  halved lookups at one-shot use)
//	schoolbook-w4        ~644 ns/op  (9 vs 6 word products)
//	sqr-table            ~48.2 ns/op
//	sqr (PCLMULQDQ)      ~12.3 ns/op
//
// Chained, each product feeding the next (BenchmarkMul, BenchmarkSqr,
// BenchmarkInv, medians of 5), the same host reads Mul 23.0 ns, Sqr
// 19.4 ns and Inv 3.36 µs on the PCLMULQDQ path, against 203 ns,
// 53.8 ns and 10.6 µs for the comb and the table.
//
// Correctness of every variant is pinned against the production path
// in TestMulSweepVariantsAgree, so the benchmark numbers compare
// equal-output implementations.

// --- comb with [16][3]uint64 rows ---

type combRows [16][3]uint64

func buildCombRows(b Element) combRows {
	var t combRows
	t[1] = b
	for u := 2; u < 16; u += 2 {
		h := t[u>>1]
		t[u] = [3]uint64{h[0] << 1, h[1]<<1 | h[0]>>63, h[2]<<1 | h[1]>>63}
		t[u+1] = [3]uint64{t[u][0] ^ b[0], t[u][1] ^ b[1], t[u][2] ^ b[2]}
	}
	return t
}

// mulCombRows is Precomp.MulNoReduce over the row layout: the same
// 41 lookups and 15 shifts, only the table indexing differs.
func mulCombRows(a, b Element) [6]uint64 {
	t := buildCombRows(b)
	var c0, c1, c2, c3, c4, c5 uint64
	for s := uint(60); s > 32; s -= 4 {
		e := &t[a[0]>>s&15]
		c0 ^= e[0]
		c1 ^= e[1]
		c2 ^= e[2]
		e = &t[a[1]>>s&15]
		c1 ^= e[0]
		c2 ^= e[1]
		c3 ^= e[2]
		c5 = c5<<4 | c4>>60
		c4 = c4<<4 | c3>>60
		c3 = c3<<4 | c2>>60
		c2 = c2<<4 | c1>>60
		c1 = c1<<4 | c0>>60
		c0 <<= 4
	}
	for s := uint(32); ; s -= 4 {
		e := &t[a[0]>>s&15]
		c0 ^= e[0]
		c1 ^= e[1]
		c2 ^= e[2]
		e = &t[a[1]>>s&15]
		c1 ^= e[0]
		c2 ^= e[1]
		c3 ^= e[2]
		e = &t[a[2]>>s&15]
		c2 ^= e[0]
		c3 ^= e[1]
		c4 ^= e[2]
		if s == 0 {
			return [6]uint64{c0, c1, c2, c3, c4, c5}
		}
		c5 = c5<<4 | c4>>60
		c4 = c4<<4 | c3>>60
		c3 = c3<<4 | c2>>60
		c2 = c2<<4 | c1>>60
		c1 = c1<<4 | c0>>60
		c0 <<= 4
	}
}

// --- per-word 4-bit window comb and 3-word Karatsuba (karatsuba-w4) ---

// wordTab is the 4-bit window table of one 64-bit operand x: entry i
// holds the truncated carry-less product i·x.
type wordTab [16]uint64

func combTab(x uint64) wordTab {
	var u wordTab
	u[1] = x
	for i := 2; i < 16; i += 2 {
		u[i] = u[i/2] << 1
		u[i+1] = u[i] ^ x
	}
	return u
}

// clmulTab returns the 128-bit carry-less product of x and y as
// (hi, lo), given x's window table, with the high-bits correction.
func clmulTab(u *wordTab, x, y uint64) (hi, lo uint64) {
	lo = u[y&0xf]
	for i := uint(4); i < 64; i += 4 {
		v := u[(y>>i)&0xf]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// The table entries truncate x<<1, x<<2, x<<3 to 64 bits. For each
	// window bit k in {1,2,3} the lost high part is (x >> (64-k)),
	// contributed at every window position whose k-th bit of y is set.
	const comb = 0x1111111111111111
	for k := uint(1); k < 4; k++ {
		z := x >> (64 - k)
		w := (y >> k) & comb
		t := w & (-(z & 1))
		t ^= (w << 1) & (-(z >> 1 & 1))
		t ^= (w << 2) & (-(z >> 2 & 1))
		hi ^= t
	}
	return hi, lo
}

// clmulTabTop is clmulTab for the top words of two canonical elements:
// both carry at most 35 bits, so the windows above bit 35 of y and the
// truncation correction (bits 61..63 of x) vanish.
func clmulTabTop(u *wordTab, y uint64) (hi, lo uint64) {
	lo = u[y&0xf]
	for i := uint(4); i < 36; i += 4 {
		v := u[(y>>i)&0xf]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	return hi, lo
}

// clmul64 returns the 128-bit carry-less product of x and y, building
// the window table on the fly.
func clmul64(x, y uint64) (hi, lo uint64) {
	u := combTab(x)
	return clmulTab(&u, x, y)
}

// karatsubaCombine assembles the 6-word product from the six word
// products of 3-word Karatsuba. With A = a0 + a1·X + a2·X² over
// X = x^64 and Dij = (ai+aj)(bi+bj):
//
//	A·B = D00 + (D01+D00+D11)·X + (D02+D00+D11+D22)·X²
//	          + (D12+D11+D22)·X³ + D22·X⁴
func karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12 uint64) [6]uint64 {
	m1l, m1h := l01^l0^l1, h01^h0^h1
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2
	m3l, m3h := l12^l1^l2, h12^h1^h2
	return [6]uint64{l0, h0 ^ m1l, m1h ^ m2l, m2h ^ m3l, m3h ^ l2, h2}
}

// mulKaratsubaW4 is the previous production multiplier: the six window
// tables live in locals and the top-word product is specialized.
func mulKaratsubaW4(a, b Element) [6]uint64 {
	x01, x02, x12 := a[0]^a[1], a[0]^a[2], a[1]^a[2]
	t0 := combTab(a[0])
	t1 := combTab(a[1])
	t2 := combTab(a[2])
	t01 := combTab(x01)
	t02 := combTab(x02)
	t12 := combTab(x12)

	h0, l0 := clmulTab(&t0, a[0], b[0])
	h1, l1 := clmulTab(&t1, a[1], b[1])
	h2, l2 := clmulTabTop(&t2, b[2])
	h01, l01 := clmulTab(&t01, x01, b[0]^b[1])
	h02, l02 := clmulTab(&t02, x02, b[0]^b[2])
	h12, l12 := clmulTab(&t12, x12, b[1]^b[2])
	return karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12)
}

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

// mulKaratsubaW builds the 6-word product with the 3-word Karatsuba
// structure over a pluggable word multiplier.
func mulKaratsubaW(a, b Element, clmul func(x, y uint64) (hi, lo uint64)) [6]uint64 {
	h0, l0 := clmul(a[0], b[0])
	h1, l1 := clmul(a[1], b[1])
	h2, l2 := clmul(a[2], b[2])
	h01, l01 := clmul(a[0]^a[1], b[0]^b[1])
	h02, l02 := clmul(a[0]^a[2], b[0]^b[2])
	h12, l12 := clmul(a[1]^a[2], b[1]^b[2])
	return karatsubaCombine(h0, l0, h1, l1, h2, l2, h01, l01, h02, l02, h12, l12)
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
			"comb-w4-rows": mulCombRows(a, b),
			"karatsuba-w4": mulKaratsubaW4(a, b),
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
	b.Run("comb-w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = mulComb(benchA, benchB)
		}
	})
	b.Run("comb-w4-rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = reduce(mulCombRows(benchA, benchB))
		}
	})
	b.Run("karatsuba-w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = reduce(mulKaratsubaW4(benchA, benchB))
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
	b.Run("sqr-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = sqrTable(benchA)
		}
	})
	b.Run("sqr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = Sqr(benchA)
		}
	})
}
