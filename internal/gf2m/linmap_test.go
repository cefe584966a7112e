package gf2m

import (
	"math/rand"
	"testing"
)

// traceByDefinition is Tr(e) = Σ_{i<m} e^(2^i), squared out.
func traceByDefinition(e Element) uint {
	s := e
	t := e
	for i := 1; i < M; i++ {
		t = Sqr(t)
		s = Add(s, t)
	}
	// The trace lies in GF(2), so s is 0 or 1.
	return uint(s[0] & 1)
}

// halfTraceBySquaring is H(e) = Σ_{i=0}^{81} e^(4^i) by 162 squarings:
// the loop HalfTrace ran before its map.
func halfTraceBySquaring(e Element) Element {
	h := e
	t := e
	for i := 1; i <= (M-1)/2; i++ {
		t = Sqr(Sqr(t))
		h = Add(h, t)
	}
	return h
}

// invBySquaring is Inv's addition chain with every run squared out.
func invBySquaring(e Element) Element {
	b1 := e
	b2 := Mul(sqrN(b1, 1), b1)
	b4 := Mul(sqrN(b2, 2), b2)
	b5 := Mul(sqrN(b4, 1), b1)
	b10 := Mul(sqrN(b5, 5), b5)
	b20 := Mul(sqrN(b10, 10), b10)
	b40 := Mul(sqrN(b20, 20), b20)
	b80 := Mul(sqrN(b40, 40), b40)
	b81 := Mul(sqrN(b80, 1), b1)
	b162 := Mul(sqrN(b81, 81), b81)
	return Sqr(b162)
}

// FuzzLinearMapsMatchSquaring: every map must give what its squaring
// loop gives, bit for bit — each run map the run of squarings,
// HalfTrace the 162-squaring sum, Inv the chain squared out and Trace
// the definitional sum. Seeds cover zero, one, x, the top bit, all
// ones and a reduction-polynomial tail.
func FuzzLinearMapsMatchSquaring(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(2), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0), uint64(1<<34))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0xc9), uint64(1<<63), uint64(0))
	runs := []struct {
		n int
		l *linearMap
	}{{20, &sqr20}, {40, &sqr40}, {81, &sqr81}}
	f.Fuzz(func(t *testing.T, a0, a1, a2 uint64) {
		e := FromWords(a0, a1, a2)
		for _, r := range runs {
			if got, want := r.l.apply(e), sqrN(e, r.n); !got.Equal(want) {
				t.Fatalf("%d-squaring map of %v = %v, squaring gives %v", r.n, e, got, want)
			}
		}
		if got, want := HalfTrace(e), halfTraceBySquaring(e); !got.Equal(want) {
			t.Fatalf("HalfTrace(%v) = %v, squaring gives %v", e, got, want)
		}
		if got, want := Inv(e), invBySquaring(e); !got.Equal(want) {
			t.Fatalf("Inv(%v) = %v, squaring gives %v", e, got, want)
		}
		if got, want := Trace(e), traceByDefinition(e); got != want {
			t.Fatalf("Trace(%v) = %d, definition gives %d", e, got, want)
		}
	})
}

func BenchmarkHalfTrace(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randElement(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = HalfTrace(x)
	}
	sink = x
}
