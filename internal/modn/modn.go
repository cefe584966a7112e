// Package modn implements multiprecision integer arithmetic modulo a
// fixed odd modulus of at most 256 bits — the scalar field of the
// binary curves used by the co-processor and its protocols.
//
// The Peeters–Hermans identification protocol (paper Fig. 2) performs
// one modular multiplication (e·r) and additions (s = d + x + e·r) on
// the tag; the reader side needs the same plus conversions from field
// elements (x-coordinates) to scalars. math/big is deliberately not
// used outside tests: the package keeps a fixed-size, allocation-free
// representation whose operation sequence does not depend on operand
// values beyond the final conditional subtraction, mirroring the
// constant-structure requirement the paper imposes on the hardware.
package modn

import (
	"errors"
	"math/bits"
)

// Words is the number of 64-bit words in a Scalar.
const Words = 4

// Scalar is a little-endian 256-bit unsigned integer. Scalars are
// meaningful relative to a Modulus and are kept reduced below it.
type Scalar [Words]uint64

// Modulus is a fixed modulus together with cached geometry.
type Modulus struct {
	n    Scalar
	bits int
}

// ErrZeroModulus is returned when constructing a Modulus from zero.
var ErrZeroModulus = errors.New("modn: modulus must be nonzero")

// NewModulus builds a Modulus from little-endian words.
func NewModulus(words [Words]uint64) (*Modulus, error) {
	m := &Modulus{n: words}
	m.bits = bitLen(words)
	if m.bits == 0 {
		return nil, ErrZeroModulus
	}
	return m, nil
}

// MustModulusFromHex parses a big-endian hex string; panics on error.
// Intended for package-level curve-order constants.
func MustModulusFromHex(s string) *Modulus {
	v, err := parseHex(s)
	if err != nil {
		panic(err)
	}
	m, err := NewModulus(v)
	if err != nil {
		panic(err)
	}
	return m
}

func parseHex(s string) (Scalar, error) {
	var v Scalar
	if s == "" {
		return v, errors.New("modn: empty hex string")
	}
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
			return v, errors.New("modn: invalid hex digit")
		}
		if v[3]>>60 != 0 {
			return v, errors.New("modn: hex constant exceeds 256 bits")
		}
		v[3] = v[3]<<4 | v[2]>>60
		v[2] = v[2]<<4 | v[1]>>60
		v[1] = v[1]<<4 | v[0]>>60
		v[0] = v[0]<<4 | nib
	}
	return v, nil
}

// MustScalarFromHex parses a big-endian hex string into a Scalar
// without reduction; panics on malformed input.
func MustScalarFromHex(s string) Scalar {
	v, err := parseHex(s)
	if err != nil {
		panic(err)
	}
	return v
}

func bitLen(v Scalar) int {
	for i := Words - 1; i >= 0; i-- {
		if v[i] != 0 {
			return i*64 + 64 - bits.LeadingZeros64(v[i])
		}
	}
	return 0
}

// BitLen returns the bit length of the modulus.
func (m *Modulus) BitLen() int { return m.bits }

// N returns the modulus value as a Scalar.
func (m *Modulus) N() Scalar { return m.n }

// Zero returns the zero scalar.
func Zero() Scalar { return Scalar{} }

// One returns the scalar 1.
func One() Scalar { return Scalar{1} }

// FromUint64 returns the scalar with value v.
func FromUint64(v uint64) Scalar { return Scalar{v} }

// IsZero reports whether s is zero.
func (s Scalar) IsZero() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// Equal reports whether s == t.
func (s Scalar) Equal(t Scalar) bool {
	return s[0] == t[0] && s[1] == t[1] && s[2] == t[2] && s[3] == t[3]
}

// Cmp returns -1, 0 or 1 as s <, ==, > t.
func (s Scalar) Cmp(t Scalar) int {
	for i := Words - 1; i >= 0; i-- {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	return 0
}

// Bit returns bit i of s.
func (s Scalar) Bit(i int) uint {
	if i < 0 || i >= Words*64 {
		return 0
	}
	return uint(s[i>>6]>>(uint(i)&63)) & 1
}

// BitLen returns the bit length of s.
func (s Scalar) BitLen() int { return bitLen(s) }

// Weight returns the Hamming weight of s. (The timing experiment E3
// correlates double-and-add latency with scalar weight.)
func (s Scalar) Weight() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// addRaw returns s + t and the carry out.
func addRaw(s, t Scalar) (Scalar, uint64) {
	var r Scalar
	var c uint64
	r[0], c = bits.Add64(s[0], t[0], 0)
	r[1], c = bits.Add64(s[1], t[1], c)
	r[2], c = bits.Add64(s[2], t[2], c)
	r[3], c = bits.Add64(s[3], t[3], c)
	return r, c
}

// subRaw returns s - t and the borrow out.
func subRaw(s, t Scalar) (Scalar, uint64) {
	var r Scalar
	var b uint64
	r[0], b = bits.Sub64(s[0], t[0], 0)
	r[1], b = bits.Sub64(s[1], t[1], b)
	r[2], b = bits.Sub64(s[2], t[2], b)
	r[3], b = bits.Sub64(s[3], t[3], b)
	return r, b
}

// Add returns (s + t) mod n. Inputs must already be reduced.
func (m *Modulus) Add(s, t Scalar) Scalar {
	r, carry := addRaw(s, t)
	// Subtract n if r >= n or the addition overflowed 256 bits.
	d, borrow := subRaw(r, m.n)
	if carry == 1 || borrow == 0 {
		return d
	}
	return r
}

// Sub returns (s - t) mod n. Inputs must already be reduced.
func (m *Modulus) Sub(s, t Scalar) Scalar {
	r, borrow := subRaw(s, t)
	if borrow == 1 {
		r, _ = addRaw(r, m.n)
	}
	return r
}

// Neg returns -s mod n.
func (m *Modulus) Neg(s Scalar) Scalar { return m.Sub(Zero(), s) }

// double512 doubles a 512-bit value in place.
func double512(v *[2 * Words]uint64) {
	var c uint64
	for i := range v {
		next := v[i] >> 63
		v[i] = v[i]<<1 | c
		c = next
	}
}

// geq512 reports whether the 512-bit value v is >= the 512-bit value w.
func geq512(v, w [2 * Words]uint64) bool {
	for i := 2*Words - 1; i >= 0; i-- {
		if v[i] != w[i] {
			return v[i] > w[i]
		}
	}
	return true
}

// sub512 computes v -= w.
func sub512(v *[2 * Words]uint64, w [2 * Words]uint64) {
	var b uint64
	for i := range v {
		v[i], b = bits.Sub64(v[i], w[i], b)
	}
}

// reduce512 reduces a 512-bit value modulo n by binary long division.
func (m *Modulus) reduce512(v [2 * Words]uint64) Scalar {
	vbits := 0
	for i := 2*Words - 1; i >= 0; i-- {
		if v[i] != 0 {
			vbits = i*64 + 64 - bits.LeadingZeros64(v[i])
			break
		}
	}
	if vbits < m.bits {
		var r Scalar
		copy(r[:], v[:Words])
		return r
	}
	// shifted = n << (vbits - m.bits)
	shift := vbits - m.bits
	var shifted [2 * Words]uint64
	w, b := shift>>6, uint(shift)&63
	for i := 0; i < Words; i++ {
		if i+w < len(shifted) {
			shifted[i+w] |= m.n[i] << b
		}
		if b != 0 && i+w+1 < len(shifted) {
			shifted[i+w+1] |= m.n[i] >> (64 - b)
		}
	}
	// Classic shift-and-subtract: one trial subtraction per bit.
	for i := 0; i <= shift; i++ {
		if geq512(v, shifted) {
			sub512(&v, shifted)
		}
		// shifted >>= 1
		for j := 0; j < len(shifted); j++ {
			shifted[j] >>= 1
			if j+1 < len(shifted) {
				shifted[j] |= shifted[j+1] << 63
			}
		}
	}
	var r Scalar
	copy(r[:], v[:Words])
	return r
}

// Mul returns (s * t) mod n.
func (m *Modulus) Mul(s, t Scalar) Scalar {
	// Schoolbook multiplication: row i adds s[i]*t into p starting at
	// word i; the row carry lands in the previously untouched word
	// p[i+Words]. The combined value p[i+j] + lo + carry is < 2^128,
	// so the outgoing carry always fits in one word.
	var p [2 * Words]uint64
	for i := 0; i < Words; i++ {
		var carry uint64
		for j := 0; j < Words; j++ {
			hi, lo := bits.Mul64(s[i], t[j])
			lo, c1 := bits.Add64(lo, p[i+j], 0)
			lo, c2 := bits.Add64(lo, carry, 0)
			p[i+j] = lo
			carry = hi + c1 + c2
		}
		p[i+Words] = carry
	}
	return m.reduce512(p)
}

// Reduce returns s mod n for an arbitrary (possibly unreduced) scalar.
func (m *Modulus) Reduce(s Scalar) Scalar {
	var v [2 * Words]uint64
	copy(v[:], s[:])
	return m.reduce512(v)
}

// Exp returns s^e mod n by square-and-multiply (left to right).
func (m *Modulus) Exp(s Scalar, e Scalar) Scalar {
	r := One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		r = m.Mul(r, r)
		if e.Bit(i) == 1 {
			r = m.Mul(r, s)
		}
	}
	return r
}

// Inv returns s^-1 mod n via Fermat's little theorem; the modulus must
// be prime (curve orders are). Inv(0) returns 0.
func (m *Modulus) Inv(s Scalar) Scalar {
	nm2, _ := subRaw(m.n, FromUint64(2))
	return m.Exp(s, nm2)
}

// Rand returns a uniformly random scalar in [0, n) by rejection
// sampling from src, a function yielding uniform uint64 values.
func (m *Modulus) Rand(src func() uint64) Scalar {
	topWord := (m.bits - 1) >> 6
	var mask uint64
	if r := uint(m.bits) & 63; r == 0 {
		mask = ^uint64(0)
	} else {
		mask = 1<<r - 1
	}
	for {
		var s Scalar
		for i := 0; i <= topWord; i++ {
			s[i] = src()
		}
		s[topWord] &= mask
		if s.Cmp(m.n) < 0 {
			return s
		}
	}
}

// RandNonZero returns a uniformly random scalar in [1, n).
func (m *Modulus) RandNonZero(src func() uint64) Scalar {
	for {
		s := m.Rand(src)
		if !s.IsZero() {
			return s
		}
	}
}

// ByteLen is the canonical scalar encoding length (256 bits).
const ByteLen = Words * 8

// Bytes returns the 32-byte big-endian encoding of s.
func (s Scalar) Bytes() []byte {
	out := make([]byte, ByteLen)
	for i := 0; i < ByteLen; i++ {
		out[ByteLen-1-i] = byte(s[i>>3] >> (uint(i) & 7 * 8))
	}
	return out
}

// FromBytes decodes a big-endian byte string of at most 32 bytes.
func FromBytes(b []byte) (Scalar, error) {
	if len(b) > ByteLen {
		return Scalar{}, errors.New("modn: encoding too long")
	}
	var s Scalar
	for _, c := range b {
		if s[3]>>56 != 0 {
			return Scalar{}, errors.New("modn: encoding overflow")
		}
		s[3] = s[3]<<8 | s[2]>>56
		s[2] = s[2]<<8 | s[1]>>56
		s[1] = s[1]<<8 | s[0]>>56
		s[0] = s[0]<<8 | uint64(c)
	}
	return s, nil
}

// String renders s in big-endian hex.
func (s Scalar) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 0, 64)
	started := false
	for i := 63; i >= 0; i-- {
		nib := byte(s[i>>4]>>(uint(i)&15*4)) & 0xf
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
