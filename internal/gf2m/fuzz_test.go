package gf2m

import (
	"bytes"
	"testing"
)

// FuzzFromBytes: decoding arbitrary bytes must yield a canonical
// element whose re-encoding round-trips (after canonicalization).
func FuzzFromBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0xff}, ByteLen))
	f.Add(bytes.Repeat([]byte{0xff}, ByteLen+5))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := FromBytes(data)
		if e.Degree() >= M {
			t.Fatalf("non-canonical element decoded: degree %d", e.Degree())
		}
		again := FromBytes(e.Bytes())
		if !again.Equal(e) {
			t.Fatal("encode/decode not a round trip")
		}
		// Algebra stays consistent on fuzzed inputs.
		if !Mul(e, One()).Equal(e) {
			t.Fatal("identity broken on fuzzed element")
		}
		if !Add(e, e).IsZero() {
			t.Fatal("characteristic-2 addition broken")
		}
		if !Sqr(e).Equal(Mul(e, e)) {
			t.Fatal("squaring inconsistent")
		}
	})
}

// FuzzMulCross: the comb multiplier (Mul, a Precompute table reused
// across products, and MulAcc's lazy reduction) must agree with the
// generic bit-serial field on arbitrary canonical operands. Seeds
// cover the structural corners: zero, identity, all-ones, single top
// bit, a repeated-window pattern, and the reduction-polynomial tail.
func FuzzMulCross(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(1<<35-1), ^uint64(0), ^uint64(0), uint64(1<<35-1))
	f.Add(uint64(0), uint64(0), uint64(1<<34), uint64(0xc9), uint64(0), uint64(1<<34))
	f.Add(uint64(0x1111111111111111), uint64(0), uint64(0), uint64(0x8000000000000000), uint64(0x8000000000000000), uint64(1))
	gen := NISTK163Field()
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 uint64) {
		a := Element{a0, a1, a2 & (1<<35 - 1)}
		b := Element{b0, b1, b2 & (1<<35 - 1)}
		want := gen.ToElement(gen.Mul(gen.FromElement(a), gen.FromElement(b)))
		if got := Mul(a, b); !got.Equal(want) {
			t.Fatalf("Mul diverged from generic field: got %v, want %v", got, want)
		}
		pa := Precompute(a)
		if got := pa.Mul(b); !got.Equal(want) {
			t.Fatal("Precomp.Mul diverged from generic field")
		}
		var acc [6]uint64
		MulAcc(&acc, a, b)
		if got := Reduce(acc); !got.Equal(want) {
			t.Fatal("MulAcc+Reduce diverged from generic field")
		}
	})
}

// FuzzReduce: arbitrary 6-word polynomials must reduce to canonical
// form consistently with multiply-then-reduce identities.
func FuzzReduce(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1<<5-1))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5 uint64) {
		// Keep within the degree bound reduce() documents (<= 324).
		c5 &= 1<<5 - 1
		r := Reduce([6]uint64{c0, c1, c2, c3, c4, c5})
		if r.Degree() >= M {
			t.Fatalf("reduce left degree %d", r.Degree())
		}
		// Reducing an already-reduced value is the identity.
		if again := Reduce([6]uint64{r[0], r[1], r[2], 0, 0, 0}); !again.Equal(r) {
			t.Fatal("reduce not idempotent on canonical values")
		}
	})
}
