// Package gf2m implements arithmetic in binary extension fields GF(2^m).
//
// The package provides two implementations:
//
//   - Element: a fast, fixed-size implementation of GF(2^163) with the
//     NIST reduction pentanomial f(x) = x^163 + x^7 + x^6 + x^3 + 1, the
//     field underlying the Koblitz curve K-163 used by the paper's
//     elliptic-curve co-processor. Elements are stored as three 64-bit
//     words in little-endian word order.
//
//   - Field / FE: a generic, variable-degree implementation supporting
//     arbitrary reduction polynomials. It is used for parameter sweeps
//     across security levels and doubles as an independent reference
//     implementation for cross-testing the fast path.
//
// All fixed-path operations are branch-free with respect to operand
// values (data-dependent branches are what the paper's timing- and
// SPA-countermeasures forbid); table lookups are indexed by public loop
// counters or operand bytes, which the simulator's leakage model
// accounts for explicitly.
package gf2m

import "math/bits"

// M is the extension degree of the fixed field GF(2^163).
const M = 163

// Words is the number of 64-bit words backing a fixed-field Element.
const Words = 3

// topMask masks the valid bits of the most significant word of an
// Element: bits 128..162 live in word 2, so 35 bits are in use.
const topMask = (uint64(1) << (M - 128)) - 1

// Element is an element of GF(2^163) in polynomial basis: bit i of the
// little-endian word array is the coefficient of x^i.
type Element [Words]uint64

// Zero returns the additive identity.
func Zero() Element { return Element{} }

// One returns the multiplicative identity.
func One() Element { return Element{1, 0, 0} }

// IsZero reports whether e is the zero element.
func (e Element) IsZero() bool { return e[0]|e[1]|e[2] == 0 }

// IsOne reports whether e is the multiplicative identity.
func (e Element) IsOne() bool { return e[0] == 1 && e[1] == 0 && e[2] == 0 }

// Equal reports whether e and f represent the same field element.
func (e Element) Equal(f Element) bool {
	return e[0] == f[0] && e[1] == f[1] && e[2] == f[2]
}

// Bit returns coefficient i of e (0 for out-of-range i).
func (e Element) Bit(i int) uint {
	if i < 0 || i >= M {
		return 0
	}
	return uint(e[i>>6]>>(uint(i)&63)) & 1
}

// SetBit returns a copy of e with coefficient i set to b&1.
func (e Element) SetBit(i int, b uint) Element {
	if i < 0 || i >= M {
		return e
	}
	w, s := i>>6, uint(i)&63
	e[w] = e[w]&^(1<<s) | uint64(b&1)<<s
	return e
}

// Degree returns the degree of the polynomial representation of e, or
// -1 for the zero element.
func (e Element) Degree() int {
	for w := Words - 1; w >= 0; w-- {
		if e[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(e[w])
		}
	}
	return -1
}

// Weight returns the Hamming weight (number of nonzero coefficients).
func (e Element) Weight() int {
	return bits.OnesCount64(e[0]) + bits.OnesCount64(e[1]) + bits.OnesCount64(e[2])
}

// HammingDistance returns the number of coefficient positions at which
// e and f differ. It is the quantity the switching-power model charges
// for a register update e -> f.
func HammingDistance(e, f Element) int {
	return bits.OnesCount64(e[0]^f[0]) + bits.OnesCount64(e[1]^f[1]) + bits.OnesCount64(e[2]^f[2])
}

// Add returns e + f. Addition in GF(2^m) is coefficient-wise XOR; in
// hardware it is a single-cycle 163-bit XOR array.
func Add(e, f Element) Element {
	return Element{e[0] ^ f[0], e[1] ^ f[1], e[2] ^ f[2]}
}

// normalize clears any bits at or above position M. Inputs built from
// external bytes may carry stray high bits; all arithmetic assumes
// canonical elements.
func (e Element) normalize() Element {
	e[2] &= topMask
	return e
}

// wordTab is the 4-bit windowed comb table of one 64-bit operand:
// entry i holds the truncated carry-less product i·x for the sixteen
// 4-bit window values. Building it costs 7 shift/XOR pairs; a word
// product then needs only the 16 comb lookups plus the high-bits
// correction. Hoisting the table out of the word product is what lets
// one operand's precomputation be shared across every word product
// using that operand (the Karatsuba left-operand tables below).
//
// The window width is pinned at 4 by measurement, not convention: the
// configuration sweep in mulsweep_test.go (BenchmarkMulSweep; numbers
// in its header) puts the
// 2-bit window ~1.4x slower (twice the lookups) and the 8-bit window
// ~6x slower (a 256-entry table build per operand word amortizes only
// after ~10 reuses, which one-shot multiplication never reaches).
// Likewise one level of 3-word Karatsuba (6 word products) beats
// schoolbook's 9 by ~15% — and there is no deeper recursion to sweep:
// the next level would split single words.
type wordTab [16]uint64

// combTab builds the window table of x.
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
// (hi, lo), given x's precomputed window table. It is the standard
// 4-bit windowed comb with the high-bits correction, and contains no
// data-dependent branches.
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

// clmulTabTop is clmulTab specialized for the top-word product of two
// canonical elements: x and y both carry at most 35 bits (degrees
// 128..162 live in word 2), so the windows above bit 35 of y and the
// truncated-shift correction (which needs bits 61..63 of x) vanish.
// This is a structural property of the element encoding, not of the
// operand values, so the specialization stays branch-free with respect
// to data.
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
// the window table on the fly (the one-shot path; multi-product
// callers go through Precomp so the tables are built once).
func clmul64(x, y uint64) (hi, lo uint64) {
	u := combTab(x)
	return clmulTab(&u, x, y)
}

// Precomp is the per-operand half of a 3-word Karatsuba
// multiplication: the six left-operand words a0, a1, a2, a0^a1, a0^a2,
// a1^a2 together with their window tables. Precomputing it once and
// reusing it across multiplications by the same operand (Precomp.Mul)
// skips the table construction entirely — the software analogue of
// wiring one multiplicand into the MALU's partial-product array.
type Precomp struct {
	x [6]uint64
	t [6]wordTab
}

// Precompute builds the Karatsuba tables of a.
func Precompute(a Element) Precomp {
	var p Precomp
	p.x = [6]uint64{a[0], a[1], a[2], a[0] ^ a[1], a[0] ^ a[2], a[1] ^ a[2]}
	for i, w := range p.x {
		p.t[i] = combTab(w)
	}
	return p
}

// MulNoReduce returns the unreduced 6-word carry-less product p·b
// using the 3-word Karatsuba decomposition of Dyka & Langendoerfer:
// six word products instead of schoolbook's nine. With
// A = a0 + a1·X + a2·X² over X = x^64 and Dij = (ai+aj)(bi+bj):
//
//	A·B = D00 + (D01+D00+D11)·X + (D02+D00+D11+D22)·X²
//	          + (D12+D11+D22)·X³ + D22·X⁴
func (p *Precomp) MulNoReduce(b Element) [6]uint64 {
	h0, l0 := clmulTab(&p.t[0], p.x[0], b[0])
	h1, l1 := clmulTab(&p.t[1], p.x[1], b[1])
	h2, l2 := clmulTabTop(&p.t[2], b[2])
	h01, l01 := clmulTab(&p.t[3], p.x[3], b[0]^b[1])
	h02, l02 := clmulTab(&p.t[4], p.x[4], b[0]^b[2])
	h12, l12 := clmulTab(&p.t[5], p.x[5], b[1]^b[2])

	// Middle coefficients (each 128 bits).
	m1l, m1h := l01^l0^l1, h01^h0^h1       // X term: a0b1+a1b0
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2 // X² term: a0b2+a2b0+a1b1
	m3l, m3h := l12^l1^l2, h12^h1^h2       // X³ term: a1b2+a2b1

	return [6]uint64{
		l0,
		h0 ^ m1l,
		m1h ^ m2l,
		m2h ^ m3l,
		m3h ^ l2,
		h2,
	}
}

// Mul returns the reduced product p·b.
func (p *Precomp) Mul(b Element) Element {
	return reduce(p.MulNoReduce(b))
}

// mul320 computes the 6-word carry-less product of two 3-word operands
// via 3-word Karatsuba (6 word products, down from schoolbook's 9).
// The window tables live in locals so the compiler keeps them on the
// stack; long-lived per-operand tables go through Precomp instead.
func mul320(a, b Element) [6]uint64 {
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

	m1l, m1h := l01^l0^l1, h01^h0^h1
	m2l, m2h := l02^l0^l1^l2, h02^h0^h1^h2
	m3l, m3h := l12^l1^l2, h12^h1^h2

	return [6]uint64{l0, h0 ^ m1l, m1h ^ m2l, m2h ^ m3l, m3h ^ l2, h2}
}

// MulAcc accumulates the unreduced product a·b into acc: acc ^= a·b.
// Reduction mod f(x) is GF(2)-linear, so a multi-term sum can be
// accumulated unreduced and folded once at the end —
// Reduce(Σ aᵢ·bᵢ) == Σ Mul(aᵢ, bᵢ) bit-for-bit. The curve layer's
// projective formulas use this to pay one reduction per sum instead of
// one per product.
func MulAcc(acc *[6]uint64, a, b Element) {
	c := mul320(a, b)
	for i := range acc {
		acc[i] ^= c[i]
	}
}

// SqrNoReduce returns the unreduced 6-word carry-less square of e, for
// lazy-reduction sums mixing squares with products.
func SqrNoReduce(e Element) [6]uint64 {
	var c [6]uint64
	c[1], c[0] = spread64(e[0])
	c[3], c[2] = spread64(e[1])
	c[5], c[4] = spread64(e[2])
	return c
}

// reduce reduces a 6-word polynomial (degree <= 324) modulo
// f(x) = x^163 + x^7 + x^6 + x^3 + 1 using the congruence
// x^163 = x^7 + x^6 + x^3 + 1. Two folding rounds suffice because the
// first fold leaves degree at most 169.
func reduce(c [6]uint64) Element {
	// h = c >> 163 (degrees 163..324, at most 162 bits).
	var h [3]uint64
	h[0] = c[2]>>35 | c[3]<<29
	h[1] = c[3]>>35 | c[4]<<29
	h[2] = c[4]>>35 | c[5]<<29

	// low = c mod x^163, then fold h*(x^7+x^6+x^3+1) in. Shifts of the
	// 163-bit h by up to 7 fit in 3 words (degree <= 169 < 192).
	var t [3]uint64
	t[0] = h[0] ^ h[0]<<3 ^ h[0]<<6 ^ h[0]<<7
	t[1] = h[1] ^ h[1]<<3 ^ h[1]<<6 ^ h[1]<<7 ^ h[0]>>61 ^ h[0]>>58 ^ h[0]>>57
	t[2] = h[2] ^ h[2]<<3 ^ h[2]<<6 ^ h[2]<<7 ^ h[1]>>61 ^ h[1]>>58 ^ h[1]>>57

	var r Element
	r[0] = c[0] ^ t[0]
	r[1] = c[1] ^ t[1]
	r[2] = c[2]&topMask ^ t[2]

	// Second fold: whatever landed at degrees 163..169 (word 2 bits
	// 35..41) folds entirely into word 0.
	h2 := r[2] >> 35
	r[2] &= topMask
	r[0] ^= h2 ^ h2<<3 ^ h2<<6 ^ h2<<7
	return r
}

// Mul returns e * f in GF(2^163).
func Mul(e, f Element) Element {
	return reduce(mul320(e, f))
}

// sqrSpread maps a byte b0..b7 to the 16-bit value with b's bits
// interleaved with zeros, i.e. the carry-less square of the byte.
var sqrSpread [256]uint16

func init() {
	for b := 0; b < 256; b++ {
		var s uint16
		for i := 0; i < 8; i++ {
			s |= uint16(b>>i&1) << (2 * i)
		}
		sqrSpread[b] = s
	}
}

// spread64 returns the 128-bit carry-less square of w (bits of w
// interleaved with zeros).
func spread64(w uint64) (hi, lo uint64) {
	lo = uint64(sqrSpread[byte(w)]) |
		uint64(sqrSpread[byte(w>>8)])<<16 |
		uint64(sqrSpread[byte(w>>16)])<<32 |
		uint64(sqrSpread[byte(w>>24)])<<48
	hi = uint64(sqrSpread[byte(w>>32)]) |
		uint64(sqrSpread[byte(w>>40)])<<16 |
		uint64(sqrSpread[byte(w>>48)])<<32 |
		uint64(sqrSpread[byte(w>>56)])<<48
	return hi, lo
}

// Sqr returns e^2. Squaring a GF(2^m) polynomial interleaves its
// coefficients with zeros, which is why hardware squarers are cheap
// relative to general multipliers.
func Sqr(e Element) Element {
	var c [6]uint64
	c[1], c[0] = spread64(e[0])
	c[3], c[2] = spread64(e[1])
	c[5], c[4] = spread64(e[2])
	return reduce(c)
}

// sqrN returns e^(2^n) by repeated squaring.
func sqrN(e Element, n int) Element {
	for i := 0; i < n; i++ {
		e = Sqr(e)
	}
	return e
}

// Inv returns the multiplicative inverse of e, computed with the
// Itoh–Tsujii addition chain for m-1 = 162
// (1,2,4,5,10,20,40,80,81,162): 9 multiplications and 162 squarings.
// Inv of the zero element returns zero (the caller is expected to
// guard; protocols in this module never invert zero).
func Inv(e Element) Element {
	b1 := e                     // e^(2^1 - 1)
	b2 := Mul(sqrN(b1, 1), b1)  // e^(2^2 - 1)
	b4 := Mul(sqrN(b2, 2), b2)  // e^(2^4 - 1)
	b5 := Mul(sqrN(b4, 1), b1)  // e^(2^5 - 1)
	b10 := Mul(sqrN(b5, 5), b5) // e^(2^10 - 1)
	b20 := Mul(sqrN(b10, 10), b10)
	b40 := Mul(sqrN(b20, 20), b20)
	b80 := Mul(sqrN(b40, 40), b40)
	b81 := Mul(sqrN(b80, 1), b1)
	b162 := Mul(sqrN(b81, 81), b81) // e^(2^162 - 1)
	return Sqr(b162)                // e^(2^163 - 2) = e^-1
}

// Div returns e / f = e * f^-1.
func Div(e, f Element) Element { return Mul(e, Inv(f)) }

// sqrtCompact maps a byte to the 4-bit compaction of its even-position
// bits — the inverse of sqrSpread restricted to one parity class.
var sqrtCompact [256]byte

// sqrtXTab holds the multiplication tables of the constant
// sqrt(x) = x^(2^(m-1)), built once at init from the repeated-squaring
// definition (the only place that definition is still evaluated).
var sqrtXTab Precomp

func init() {
	for b := 0; b < 256; b++ {
		var c byte
		for i := 0; i < 4; i++ {
			c |= byte(b>>(2*i)&1) << i
		}
		sqrtCompact[b] = c
	}
	sqrtXTab = Precompute(sqrN(Element{2, 0, 0}, M-1))
}

// compactEven compresses the even-position bits of w into 32 bits (the
// inverse of spread64's interleave). Odd positions are the even
// positions of w >> 1.
func compactEven(w uint64) uint64 {
	return uint64(sqrtCompact[byte(w)]) |
		uint64(sqrtCompact[byte(w>>8)])<<4 |
		uint64(sqrtCompact[byte(w>>16)])<<8 |
		uint64(sqrtCompact[byte(w>>24)])<<12 |
		uint64(sqrtCompact[byte(w>>32)])<<16 |
		uint64(sqrtCompact[byte(w>>40)])<<20 |
		uint64(sqrtCompact[byte(w>>48)])<<24 |
		uint64(sqrtCompact[byte(w>>56)])<<28
}

// Sqrt returns the square root of e, which always exists and is unique
// in a binary field. Splitting e = E(x²) + x·O(x²) into its even- and
// odd-position coefficients gives sqrt(e) = E(x) + sqrt(x)·O(x): two
// bit-compactions and one multiplication by the precomputed constant
// sqrt(x), instead of the m-1 = 162 squarings of the e^(2^(m-1))
// definition. The root is unique, so the value is identical to the
// repeated-squaring path (pinned by TestSqrtMatchesRepeatedSquaring).
func Sqrt(e Element) Element {
	even := Element{compactEven(e[0]) | compactEven(e[1])<<32, compactEven(e[2]), 0}
	odd := Element{compactEven(e[0]>>1) | compactEven(e[1]>>1)<<32, compactEven(e[2] >> 1), 0}
	return Add(even, sqrtXTab.Mul(odd))
}

// traceVec has bit i set iff Tr(x^i) = 1; the trace of an arbitrary
// element is then the parity of (e AND traceVec). Computed once at
// package init from the definition Tr(c) = sum c^(2^i).
var traceVec Element

func init() {
	for i := 0; i < M; i++ {
		var xi Element
		xi = xi.SetBit(i, 1)
		if traceByDefinition(xi) == 1 {
			traceVec = traceVec.SetBit(i, 1)
		}
	}
}

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

// Trace returns the absolute trace Tr(e) in {0, 1}.
func Trace(e Element) uint {
	and := Element{e[0] & traceVec[0], e[1] & traceVec[1], e[2] & traceVec[2]}
	return uint(and.Weight()) & 1
}

// HalfTrace returns H(e) = sum_{i=0}^{(m-1)/2} e^(2^(2i)). For odd m,
// if Tr(e) = 0 then z = H(e) solves z^2 + z = e; this is how the curve
// layer solves for y-coordinates (point decompression, y-recovery
// checks). If Tr(e) = 1 the equation has no solution.
func HalfTrace(e Element) Element {
	h := e
	t := e
	for i := 1; i <= (M-1)/2; i++ {
		t = Sqr(Sqr(t))
		h = Add(h, t)
	}
	return h
}

// Bytes returns the big-endian 21-byte encoding of e (ceil(163/8)).
func (e Element) Bytes() []byte {
	out := make([]byte, ByteLen)
	for i := 0; i < ByteLen; i++ {
		shift := uint(8 * (ByteLen - 1 - i))
		out[i] = byte(e[shift>>6] >> (shift & 63))
		// Bits straddling word boundaries.
		if shift&63 > 64-8 && shift>>6 < Words-1 {
			out[i] |= byte(e[shift>>6+1] << (64 - shift&63))
		}
	}
	return out
}

// ByteLen is the length of the canonical byte encoding of an Element.
const ByteLen = (M + 7) / 8

// FromBytes decodes a big-endian byte string (at most ByteLen bytes)
// into an Element, reducing stray high bits to canonical form.
func FromBytes(b []byte) Element {
	var e Element
	for _, c := range b {
		// e = e<<8 | c
		e[2] = e[2]<<8 | e[1]>>56
		e[1] = e[1]<<8 | e[0]>>56
		e[0] = e[0]<<8 | uint64(c)
	}
	return e.normalize()
}

// FromUint64 returns the element whose low word is w.
func FromUint64(w uint64) Element { return Element{w, 0, 0} }

// FromWords builds an element from three little-endian words,
// normalizing stray high bits.
func FromWords(w0, w1, w2 uint64) Element {
	return Element{w0, w1, w2}.normalize()
}

// String renders e as a big-endian hexadecimal string.
func (e Element) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 0, 41)
	started := false
	for i := ByteLen*2 - 1; i >= 0; i-- {
		nib := byte(e[(4*i)>>6]>>(uint(4*i)&63)) & 0xf
		if nib != 0 {
			started = true
		}
		if started {
			buf = append(buf, hexdigits[nib])
		}
	}
	if !started {
		return "0"
	}
	return string(buf)
}

// MustFromHex parses a big-endian hexadecimal string into an Element
// and panics on malformed input. It is intended for package-level
// curve constants.
func MustFromHex(s string) Element {
	var e Element
	for _, c := range s {
		var nib uint64
		switch {
		case c >= '0' && c <= '9':
			nib = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			nib = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			nib = uint64(c-'A') + 10
		default:
			panic("gf2m: invalid hex digit in constant")
		}
		e[2] = e[2]<<4 | e[1]>>60
		e[1] = e[1]<<4 | e[0]>>60
		e[0] = e[0]<<4 | nib
	}
	if e != e.normalize() {
		panic("gf2m: constant exceeds field degree")
	}
	return e
}

// MulNoReduce exposes the raw 6-word carry-less product for tests and
// for the digit-serial multiplier model's cross-checks.
func MulNoReduce(e, f Element) [6]uint64 { return mul320(e, f) }

// Reduce exposes polynomial reduction of a 6-word value for tests.
func Reduce(c [6]uint64) Element { return reduce(c) }

// ShlMod returns e * x^s mod f(x) for small shift amounts 0 <= s <= 61.
// This is the per-cycle operation of the digit-serial multiplier
// (shift the accumulator by the digit size, then reduce), exposed here
// so the co-processor model and the field agree exactly.
func ShlMod(e Element, s uint) Element {
	if s == 0 {
		return e
	}
	c0 := e[0] << s
	c1 := e[1]<<s | e[0]>>(64-s)
	c2 := e[2]<<s | e[1]>>(64-s)
	c3 := e[2] >> (64 - s)
	// Specialized reduction: the overflow h = (e·x^s) >> 163 has degree
	// at most 162+61-163 = 60, so it fits one word and a single fold of
	// h·(x^7+x^6+x^3+1) — landing no higher than degree 67 — finishes
	// the job. This is the general reduce() with h[1] = h[2] = 0 and no
	// second folding round, so the result is bit-identical.
	h := c2>>35 | c3<<29
	return Element{
		c0 ^ h ^ h<<3 ^ h<<6 ^ h<<7,
		c1 ^ h>>61 ^ h>>58 ^ h>>57,
		c2 & topMask,
	}
}
