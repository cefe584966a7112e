package coproc

import (
	"math/rand"
	"testing"

	"medsec/internal/gf2m"
)

// extractDigitRef is the original bit-loop digit extraction, the
// reference the word-level extractDigit is cross-checked against.
func extractDigitRef(e gf2m.Element, j, d int) uint64 {
	lo := j * d
	var v uint64
	for i := 0; i < d; i++ {
		v |= uint64(e.Bit(lo+i)) << i
	}
	return v
}

// mulSmall returns a * digit mod f where digit is a polynomial of
// degree < d (d <= 61): the MALU's per-cycle partial product, computed
// by rebuilding every shifted operand — the reference for the
// interpreter's precomputed shift table.
func mulSmall(a gf2m.Element, digit uint64) gf2m.Element {
	var acc gf2m.Element
	for i := 0; digit != 0; i++ {
		if digit&1 == 1 {
			acc = gf2m.Add(acc, gf2m.ShlMod(a, uint(i)))
		}
		digit >>= 1
	}
	return acc
}

func randomElement(r *rand.Rand) gf2m.Element {
	return gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64()&(1<<35-1))
}

// TestExtractDigitMatchesRef pins the word-level digit extraction
// against the original bit-loop, for every digit size the MALU model
// supports and every digit position, on random and corner operands.
func TestExtractDigitMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(0xd161))
	corners := []gf2m.Element{
		{},
		gf2m.One(),
		gf2m.FromWords(^uint64(0), ^uint64(0), 1<<35-1),
		gf2m.FromWords(0x8000000000000000, 1, 1<<34),
	}
	for d := 1; d <= maxDigitSize; d++ {
		digits := (163 + d - 1) / d
		check := func(e gf2m.Element) {
			for j := 0; j < digits; j++ {
				got := extractDigit(e, j, d)
				want := extractDigitRef(e, j, d)
				if got != want {
					t.Fatalf("d=%d j=%d: extractDigit=%#x, ref=%#x (e=%v)", d, j, got, want, e)
				}
			}
		}
		for _, e := range corners {
			check(e)
		}
		for i := 0; i < 8; i++ {
			check(randomElement(r))
		}
	}
}

// TestShiftTablePartialProductMatchesMulSmall pins the precomputed
// shift-table partial product (what runMALULane XORs together per digit
// cycle) against the reference mulSmall, for every digit size.
func TestShiftTablePartialProductMatchesMulSmall(t *testing.T) {
	r := rand.New(rand.NewSource(0xa15))
	for d := 1; d <= maxDigitSize; d++ {
		for trial := 0; trial < 16; trial++ {
			a := randomElement(r)
			var shifts [maxDigitSize]gf2m.Element
			shifts[0] = a
			for i := 1; i < d; i++ {
				shifts[i] = gf2m.ShlMod(shifts[i-1], 1)
			}
			digit := r.Uint64() & (1<<uint(d) - 1)
			var got gf2m.Element
			for dg, i := digit, 0; dg != 0; dg, i = dg>>1, i+1 {
				if dg&1 == 1 {
					got = gf2m.Add(got, shifts[i])
				}
			}
			if want := mulSmall(a, digit); !got.Equal(want) {
				t.Fatalf("d=%d digit=%#x: shift-table product diverged from mulSmall", d, digit)
			}
		}
	}
}
