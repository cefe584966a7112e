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
		var got Element
		if pa.MulTo(&got, &b); !got.Equal(want) {
			t.Fatal("Precomp.MulTo diverged from generic field")
		}
		var acc [6]uint64
		MulAcc(&acc, &a, &b)
		if Reduce(&got, &acc); !got.Equal(want) {
			t.Fatal("MulAcc+Reduce diverged from generic field")
		}
	})
}

// FuzzCLMULMatchesPortable: where the CPU has PCLMULQDQ, every field
// kernel (MulTo, SqrTo, MulAcc, Reduce, Precomp.MulTo and
// Precomp.MulNoReduce, and the value forms Mul and Sqr over them)
// takes the carry-less multiply; on arbitrary canonical operands each
// must return the words of the comb, the squaring table and reduce(),
// called directly in the same binary, also when the result aliases an
// operand. The seeds pair the structuredElements corners. Elsewhere the
// exported functions are the portable ones, and the target skips.
func FuzzCLMULMatchesPortable(f *testing.F) {
	if !hasCLMUL {
		f.Skip("no PCLMULQDQ on this CPU or GOARCH: the field kernels already take the comb and the squaring table")
	}
	es := structuredElements()
	for _, a := range es[:10] {
		for _, b := range es {
			f.Add(a[0], a[1], a[2], b[0], b[1], b[2])
		}
	}
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 uint64) {
		a, b := FromWords(a0, a1, a2), FromWords(b0, b1, b2)
		var comb Precomp
		comb.build(b)
		raw := comb.productComb(a)
		want := reduce(raw)
		if got := Mul(a, b); got != want {
			t.Fatalf("Mul(%v, %v) = %v, the comb gives %v", a, b, got, want)
		}
		var got Element
		if MulTo(&got, &a, &b); got != want {
			t.Fatalf("MulTo(r, %v, %v) = %v, the comb gives %v", a, b, got, want)
		}
		got = a
		if MulTo(&got, &got, &b); got != want {
			t.Fatalf("MulTo(&a, &a, %v) with a = %v gives %v, the comb gives %v", b, a, got, want)
		}
		got = b
		if MulTo(&got, &a, &got); got != want {
			t.Fatalf("MulTo(&b, %v, &b) with b = %v gives %v, the comb gives %v", a, b, got, want)
		}
		pb := Precompute(b)
		got = a
		if pb.MulTo(&got, &got); got != want {
			t.Fatalf("Precompute(%v).MulTo(&a, &a) with a = %v gives %v, the comb gives %v", b, a, got, want)
		}
		var c [6]uint64
		if pb.MulNoReduce(&c, &a); c != raw {
			t.Fatalf("Precompute(%v).MulNoReduce(c, %v) = %x, the comb gives %x", b, a, c, raw)
		}
		acc := [6]uint64{b2, b1, b0, a2, a1, a0}
		wantAcc := acc
		for i := range wantAcc {
			wantAcc[i] ^= raw[i]
		}
		if MulAcc(&acc, &a, &b); acc != wantAcc {
			t.Fatalf("MulAcc(acc, %v, %v) = %x, the comb gives %x", a, b, acc, wantAcc)
		}
		// Any 6 words of degree at most 324 (Reduce's bound), not only a
		// product.
		c = [6]uint64{a0, a1, a2, b0, b1, b2 & (1<<5 - 1)}
		if Reduce(&got, &c); got != reduce(c) {
			t.Fatalf("Reduce(r, %x) = %v, reduce() gives %v", c, got, reduce(c))
		}
		sq := sqrTable(a)
		if got := Sqr(a); got != sq {
			t.Fatalf("Sqr(%v) = %v, the squaring table gives %v", a, got, sq)
		}
		got = a
		if SqrTo(&got, &got); got != sq {
			t.Fatalf("SqrTo(&a, &a) with a = %v gives %v, the squaring table gives %v", a, got, sq)
		}
		got = a
		if MulTo(&got, &got, &got); got != sq {
			t.Fatalf("MulTo(&a, &a, &a) with a = %v gives %v, the squaring table gives %v", a, got, sq)
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
		var r, again Element
		Reduce(&r, &[6]uint64{c0, c1, c2, c3, c4, c5})
		if r.Degree() >= M {
			t.Fatalf("reduce left degree %d", r.Degree())
		}
		// Reducing an already-reduced value is the identity.
		if Reduce(&again, &[6]uint64{r[0], r[1], r[2], 0, 0, 0}); !again.Equal(r) {
			t.Fatal("reduce not idempotent on canonical values")
		}
	})
}
