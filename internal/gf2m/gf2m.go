// Package gf2m implements arithmetic in binary extension fields GF(2^m).
//
// Element is a fast, fixed-size implementation of GF(2^163) with the
// NIST reduction pentanomial f(x) = x^163 + x^7 + x^6 + x^3 + 1, the
// field underlying the Koblitz curve K-163 used by the paper's
// elliptic-curve co-processor. Elements are stored as three 64-bit
// words in little-endian word order. On amd64 CPUs with PCLMULQDQ, a
// 64×64-bit carry-less multiply, products and squares are built from
// that instruction and reduced with it. The portable path, for every
// other CPU and GOARCH, multiplies with a whole-operand left-to-right
// comb with 4-bit windows (Precomp) and squares by a byte table.
// Squaring is GF(2)-linear, so a run of n squarings is a fixed
// 163×163 bit matrix, and so is the half-trace: HalfTrace and Inv's
// runs of 20, 40 and 81 squarings apply such matrices, built once at
// package init (linmap.go).
//
// The package's tests hold it to an independent reference, a generic
// variable-degree field with arbitrary reduction polynomials
// (generic_ref_test.go).
//
// All fixed-path operations are branch-free with respect to operand
// values (data-dependent branches are what the paper's timing- and
// SPA-countermeasures forbid), and PCLMULQDQ's latency does not depend
// on its operands. A matrix is applied by masking each column with
// all ones or all zeros from one operand bit and XORing it in, so no
// branch and no memory index depends on the operand. Table lookups
// indexed by operand bytes and nibbles remain only on the portable
// path. This is the simulator's host arithmetic: the device's leakage
// is modelled in the coproc and power packages, not in the timing of
// this code.
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

// Precomp is an operand b prepared for repeated products a·b.
//
// On an amd64 CPU with PCLMULQDQ it holds only b: the carry-less
// multiply needs no table, so there are no planes to build.
//
// On the portable path it also holds the comb table of b for the
// left-to-right comb multiplier with 4-bit windows
// (Hankerson–Menezes–Vanstone, Alg. 2.36): entry u holds the product
// u·b for each of the sixteen polynomials u of degree below 4. A
// canonical b has degree at most 162, so every entry has degree at most
// 165 and fits in 3 words. The entries are stored as three 16-word
// planes, one per product word. The comb's Mul builds a table per call.
// Precompute keeps one alive across every product by a fixed operand
// (Sqrt's constant sqrt(x), the ladder's x(P)), which skips the table
// construction entirely — the software analogue of wiring one
// multiplicand into the MALU's partial-product array. The whole-operand
// scan and the plane layout are pinned by measurement: mulsweep_test.go
// keeps the rejected configurations, the 3-word Karatsuba over per-word
// combs among them (BenchmarkMulSweep; numbers in its header).
type Precomp struct {
	b          Element
	w0, w1, w2 [16]uint64
}

// build fills p's planes with the comb table of b. Entry 0 stays zero;
// each even entry is half its index's entry shifted up one bit, each
// odd entry the even one below it plus b.
func (p *Precomp) build(b Element) {
	p.w0[1], p.w1[1], p.w2[1] = b[0], b[1], b[2]
	for u := 2; u < 16; u += 2 {
		h := u >> 1
		p.w0[u] = p.w0[h] << 1
		p.w1[u] = p.w1[h]<<1 | p.w0[h]>>63
		p.w2[u] = p.w2[h]<<1 | p.w1[h]>>63
		p.w0[u+1] = p.w0[u] ^ b[0]
		p.w1[u+1] = p.w1[u] ^ b[1]
		p.w2[u+1] = p.w2[u] ^ b[2]
	}
}

// Precompute prepares b for repeated products; on the portable path it
// builds b's comb table.
func Precompute(b Element) Precomp {
	p := Precomp{b: b}
	if !hasCLMUL {
		p.build(b)
	}
	return p
}

// MulNoReduce returns the unreduced 6-word carry-less product a·b.
func (p *Precomp) MulNoReduce(a Element) [6]uint64 {
	if hasCLMUL {
		var c [6]uint64
		mulAccCLMUL(&c, &a, &p.b)
		return c
	}
	return p.productComb(a)
}

// productComb is MulNoReduce on the portable path, over p's planes. It
// scans a's 4-bit windows from the top: window s of every word selects
// one table entry, added at that word's offset, and the 6-word
// accumulator shifts up 4 bits between window positions. Word 2 of a
// canonical element holds only bits 0..34, so its windows from bit 36
// up are zero and skipped: 41 lookups and 15 shifts. That skip depends
// on the element encoding, not on operand values, so the scan has no
// data-dependent branches.
func (p *Precomp) productComb(a Element) [6]uint64 {
	var c0, c1, c2, c3, c4, c5 uint64
	for s := uint(60); s > 32; s -= 4 {
		u := a[0] >> s & 15
		c0 ^= p.w0[u]
		c1 ^= p.w1[u]
		c2 ^= p.w2[u]
		u = a[1] >> s & 15
		c1 ^= p.w0[u]
		c2 ^= p.w1[u]
		c3 ^= p.w2[u]
		c5 = c5<<4 | c4>>60
		c4 = c4<<4 | c3>>60
		c3 = c3<<4 | c2>>60
		c2 = c2<<4 | c1>>60
		c1 = c1<<4 | c0>>60
		c0 <<= 4
	}
	for s := uint(32); ; s -= 4 {
		u := a[0] >> s & 15
		c0 ^= p.w0[u]
		c1 ^= p.w1[u]
		c2 ^= p.w2[u]
		u = a[1] >> s & 15
		c1 ^= p.w0[u]
		c2 ^= p.w1[u]
		c3 ^= p.w2[u]
		u = a[2] >> s & 15
		c2 ^= p.w0[u]
		c3 ^= p.w1[u]
		c4 ^= p.w2[u]
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

// Mul returns the reduced product a·b.
func (p *Precomp) Mul(a Element) Element {
	if hasCLMUL {
		var r Element
		mulCLMUL(&r, &a, &p.b)
		return r
	}
	return reduce(p.productComb(a))
}

// MulAcc accumulates the unreduced product a·b into acc: acc ^= a·b.
// Reduction mod f(x) is GF(2)-linear, so a multi-term sum can be
// accumulated unreduced and folded once at the end —
// Reduce(Σ aᵢ·bᵢ) == Σ Mul(aᵢ, bᵢ) bit-for-bit. The curve layer's
// ladder uses this to pay one reduction per sum instead of one per
// product.
func MulAcc(acc *[6]uint64, a, b Element) {
	if hasCLMUL {
		mulAccCLMUL(acc, &a, &b)
		return
	}
	var t Precomp
	t.build(b)
	c := t.productComb(a)
	for i := range acc {
		acc[i] ^= c[i]
	}
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
	if hasCLMUL {
		var r Element
		mulCLMUL(&r, &e, &f)
		return r
	}
	return mulComb(e, f)
}

// mulComb is Mul on the portable path: f's comb table, e's windows.
func mulComb(e, f Element) Element {
	var t Precomp
	t.build(f)
	return reduce(t.productComb(e))
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
	if hasCLMUL {
		var r Element
		sqrCLMUL(&r, &e)
		return r
	}
	return sqrTable(e)
}

// sqrTable is Sqr on the portable path: the interleave by byte table.
func sqrTable(e Element) Element {
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
// The runs of 20, 40 and 81 squarings go through their linear maps;
// a run of 10 is cheaper squared out. Inv of the zero element returns
// zero (the caller is expected to guard; protocols in this module
// never invert zero).
func Inv(e Element) Element {
	b1 := e                     // e^(2^1 - 1)
	b2 := Mul(sqrN(b1, 1), b1)  // e^(2^2 - 1)
	b4 := Mul(sqrN(b2, 2), b2)  // e^(2^4 - 1)
	b5 := Mul(sqrN(b4, 1), b1)  // e^(2^5 - 1)
	b10 := Mul(sqrN(b5, 5), b5) // e^(2^10 - 1)
	b20 := Mul(sqrN(b10, 10), b10)
	b40 := Mul(sqr20.apply(b20), b20)
	b80 := Mul(sqr40.apply(b40), b40)
	b81 := Mul(sqrN(b80, 1), b1)
	b162 := Mul(sqr81.apply(b81), b81) // e^(2^162 - 1)
	return Sqr(b162)                   // e^(2^163 - 2) = e^-1
}

// Div returns e / f = e * f^-1.
func Div(e, f Element) Element { return Mul(e, Inv(f)) }

// sqrtCompact maps a byte to the 4-bit compaction of its even-position
// bits — the inverse of sqrSpread restricted to one parity class.
var sqrtCompact [256]byte

// sqrtXTab holds the comb table of the constant
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
// element is then the parity of (e AND traceVec). It is read off the
// half-trace's columns: for odd m, H(e)² + H(e) = e + Tr(e).
var traceVec Element

func init() {
	sqr20.buildSqrRun(20)
	sqr40.buildSqrRun(40)
	sqr81.buildSqrRun(81)
	halfTrace.buildHalfTrace()
	for i, h := range &halfTrace {
		t := Add(Add(Sqr(h), h), Zero().SetBit(i, 1))
		traceVec = traceVec.SetBit(i, uint(t[0]))
	}
}

// Trace returns the absolute trace Tr(e) in {0, 1}.
func Trace(e Element) uint {
	and := Element{e[0] & traceVec[0], e[1] & traceVec[1], e[2] & traceVec[2]}
	return uint(and.Weight()) & 1
}

// HalfTrace returns H(e) = sum_{i=0}^{(m-1)/2} e^(2^(2i)). For odd m,
// if Tr(e) = 0 then z = H(e) solves z^2 + z = e; this is how the curve
// layer solves for y-coordinates (point decompression, y-recovery
// checks). If Tr(e) = 1 the equation has no solution. H is GF(2)-linear,
// so it is one application of its map instead of 162 squarings.
func HalfTrace(e Element) Element { return halfTrace.apply(e) }

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

// Reduce reduces a 6-word polynomial of degree at most 324, such as a
// MulAcc sum, modulo f(x).
func Reduce(c [6]uint64) Element {
	if hasCLMUL {
		var r Element
		reduceCLMUL(&r, &c)
		return r
	}
	return reduce(c)
}

// ShlMod returns e * x^s mod f(x) for small shift amounts 0 <= s <= 61.
// This is the per-cycle operation of the digit-serial multiplier
// (shift the accumulator by the digit size, then reduce). The
// co-processor model inlines the same fold on an accumulator held in
// scalar words; its tests hold that loop to ShlMod.
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
