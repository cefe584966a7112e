package gf2m

// linearMap is a GF(2)-linear map of GF(2^163) held as its 163
// columns: column i is the image of x^i. Squaring is linear in
// characteristic 2, so a run of n squarings is such a map, and so is
// the half-trace, a sum of squaring runs.
type linearMap [M]Element

// apply returns the image of e: the XOR of the columns that e's set
// bits select. Each column is ANDed with a mask of all ones or all
// zeros built from its bit, so the loop neither branches on e nor
// indexes memory by it. A table indexed by e's nibbles would be
// faster and would break the package's constant-time claim.
func (l *linearMap) apply(e Element) Element {
	r0, r1, r2 := applyWord(0, 0, 0, l[:64], e[0])
	r0, r1, r2 = applyWord(r0, r1, r2, l[64:128], e[1])
	r0, r1, r2 = applyWord(r0, r1, r2, l[128:], e[2])
	return Element{r0, r1, r2}
}

// applyWord XORs into (r0, r1, r2) the columns of cols that w's low
// bits select, bit j selecting cols[j]. The sum stays in three scalars,
// which the compiler keeps in registers; an Element would not be.
func applyWord(r0, r1, r2 uint64, cols []Element, w uint64) (uint64, uint64, uint64) {
	for _, c := range cols {
		m := -(w & 1)
		r0 ^= c[0] & m
		r1 ^= c[1] & m
		r2 ^= c[2] & m
		w >>= 1
	}
	return r0, r1, r2
}

// The maps the package applies, built once at init: the runs of 20,
// 40 and 81 squarings in Inv's addition chain, and the half-trace.
var sqr20, sqr40, sqr81, halfTrace linearMap

// buildSqrRun fills l with the map of n successive squarings,
// e ↦ e^(2^n). Its column i is (x^i)^(2^n) = c^i with c = x^(2^n): one
// Mul from the column before.
func (l *linearMap) buildSqrRun(n int) {
	c := sqrN(Element{2, 0, 0}, n)
	l[0] = One()
	for i := 1; i < M; i++ {
		l[i] = Mul(l[i-1], c)
	}
}

// buildHalfTrace fills l with the map of H(e) = Σ_{j=0}^{81} e^(4^j).
// With the partial sums S_k(e) = Σ_{j<k} e^(4^j), S_{a+b} = S_a +
// S_b^(4^a), so an odd column runs the chain 1, 2, 4, 5, 10, 20, 40,
// 41, 82 with its long runs on sqr20, sqr40 and sqr81 (which must be
// built first). An even column 2j is the square of column j, as
// H(e²) = H(e)², and column 0 is H(1) = 82·1 = 0.
func (l *linearMap) buildHalfTrace() {
	for i := 1; i < M; i += 2 {
		e := Zero().SetBit(i, 1)
		s2 := Add(e, sqrN(e, 2))
		s4 := Add(s2, sqrN(s2, 4))
		s5 := Add(e, sqrN(s4, 2))
		s10 := Add(s5, sqrN(s5, 10))
		s20 := Add(s10, sqr20.apply(s10))
		s40 := Add(s20, sqr40.apply(s20))
		s41 := Add(e, sqrN(s40, 2))
		l[i] = Add(s41, Sqr(sqr81.apply(s41)))
	}
	l[0] = Zero()
	for i := 2; i < M; i += 2 {
		l[i] = Sqr(l[i/2])
	}
}
