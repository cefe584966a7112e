package gf2m

import (
	"math/rand"
	"testing"
)

// This file pins the fixed-path multiplier against the generic
// bit-serial field (generic.go), which shares no code with it:
// different multiplication algorithm (shift-and-add with interleaved
// reduction vs PCLMULQDQ products where the CPU has them, a
// whole-operand 4-bit comb elsewhere), different inversion, different
// reduction. Any systematic error in the carry-less kernels, the comb
// table, the window scan, or the lazy-reduction helpers shows up as a
// divergence here. The file keeps its name, and its tests theirs, from the 3-word
// Karatsuba multiplier the comb replaced (mulsweep_test.go).

// structuredElements returns the adversarial corner inputs for the
// multiplier: zero, one, every single-bit element, the all-ones
// canonical element, and elements hugging the x^163 reduction
// boundary, where the table's carries across words, the scan's
// skipped top-word windows and the carry-less fold's word boundaries
// earn their keep.
func structuredElements() []Element {
	es := []Element{
		Zero(),
		One(),
		{^uint64(0), ^uint64(0), 1<<35 - 1}, // all ones, canonical
		{0, 0, 1 << 34},                     // x^162
		{0xc9, 0, 1 << 34},                  // x^162 + reduction tail
		{^uint64(0), 0, 0},                  // dense low word
		{0, ^uint64(0), 0},                  // dense middle word
		{0, 0, 1<<35 - 1},                   // dense top word
		{0x8000000000000000, 0x8000000000000000, 1},    // word-boundary bits
		{0x1111111111111111, 0x1111111111111111, 0x11}, // comb mask pattern
	}
	for i := 0; i < M; i++ {
		es = append(es, Zero().SetBit(i, 1))
	}
	return es
}

// crossCheckPair verifies every public multiplication surface on one
// operand pair against the generic field, the pointer forms also with
// a result that aliases an operand.
func crossCheckPair(t *testing.T, f *Field, a, b Element) {
	t.Helper()
	want := f.ToElement(f.Mul(f.FromElement(a), f.FromElement(b)))
	got := Mul(a, b)
	if !got.Equal(want) {
		t.Fatalf("Mul(%v, %v) = %v, generic says %v", a, b, got, want)
	}
	got = a
	if MulTo(&got, &got, &b); !got.Equal(want) {
		t.Fatalf("MulTo(&a, &a, %v) with a = %v diverged from generic", b, a)
	}
	got = b
	if MulTo(&got, &a, &got); !got.Equal(want) {
		t.Fatalf("MulTo(&b, %v, &b) with b = %v diverged from generic", a, b)
	}
	pa := Precompute(a)
	got = b
	if pa.MulTo(&got, &got); !got.Equal(want) {
		t.Fatalf("Precompute(%v).MulTo(&b, &b) with b = %v diverged from generic", a, b)
	}
	var c [6]uint64
	pa.MulNoReduce(&c, &b)
	got = a
	if Reduce(&got, &c); !got.Equal(want) {
		t.Fatalf("Precompute(%v).MulNoReduce(c, %v) diverged from generic", a, b)
	}
}

func TestKaratsubaCrossGenericStructured(t *testing.T) {
	f := NISTK163Field()
	es := structuredElements()
	// All pairs over the fixed corner list (first 10 entries) and each
	// corner against a sweep of single-bit elements.
	for i := 0; i < 10; i++ {
		for _, b := range es {
			crossCheckPair(t, f, es[i], b)
		}
	}
	// The table-driven squarer on the same corners, in place too.
	for _, e := range es {
		want := f.ToElement(f.Sqr(f.FromElement(e)))
		got := Sqr(e)
		if !got.Equal(want) {
			t.Fatalf("Sqr(%v) = %v, generic says %v", e, got, want)
		}
		got = e
		if SqrTo(&got, &got); !got.Equal(want) {
			t.Fatalf("SqrTo(&e, &e) with e = %v gives %v, generic says %v", e, got, want)
		}
	}
}

func TestKaratsubaCrossGenericRandom(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(0x5eed_ca1c))
	for i := 0; i < 300; i++ {
		crossCheckPair(t, f, randElement(r), randElement(r))
	}
}

// TestMulAccLazyReduction pins the identity the ec ladder's addition
// relies on: because reduction mod f is GF(2)-linear,
// Reduce(Σ aᵢ·bᵢ unreduced) must be bit-identical to Σ Mul(aᵢ, bᵢ).
func TestMulAccLazyReduction(t *testing.T) {
	r := rand.New(rand.NewSource(0xacc))
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(4)
		var acc [6]uint64
		sum := Zero()
		for j := 0; j < n; j++ {
			a, b := randElement(r), randElement(r)
			MulAcc(&acc, &a, &b)
			sum = Add(sum, Mul(a, b))
		}
		var got Element
		if Reduce(&got, &acc); !got.Equal(sum) {
			t.Fatalf("lazy-reduced %d-term sum diverged from reduced-per-term sum", n)
		}
	}
}

// TestShlModCrossGeneric pins the specialized shift-reduce against
// generic multiplication by x^s, across every shift the MALU model
// uses (digit sizes 1..maxDigit) and then some.
func TestShlModCrossGeneric(t *testing.T) {
	f := NISTK163Field()
	r := rand.New(rand.NewSource(0x5317))
	for s := uint(0); s <= 8; s++ {
		xs := f.Zero()
		f.SetBit(xs, int(s), 1)
		for _, e := range structuredElements() {
			want := f.ToElement(f.Mul(f.FromElement(e), xs))
			if got := ShlMod(e, s); !got.Equal(want) {
				t.Fatalf("ShlMod(%v, %d) = %v, generic says %v", e, s, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			e := randElement(r)
			want := f.ToElement(f.Mul(f.FromElement(e), xs))
			if got := ShlMod(e, s); !got.Equal(want) {
				t.Fatalf("ShlMod(random, %d) diverged from generic", s)
			}
		}
	}
}
