// Package ec implements elliptic curves over GF(2^163) in short
// binary Weierstrass form
//
//	y^2 + x*y = x^3 + a*x^2 + b,
//
// the curve family of the paper's co-processor. It provides the NIST
// Koblitz curve K-163 (the paper's curve: a = b = 1, 80-bit security,
// "equivalent to 1024-bit RSA"), the affine group law, the x-only
// Montgomery powering ladder of the paper's Algorithm 1 with
// López–Dahab projective coordinates, y-recovery, and the two
// countermeasures the algorithm level contributes:
//
//   - constant-structure ladder (timing / SPA), and
//   - randomized projective coordinates (DPA).
//
// The software ladder is constant-time as the chip's is: each step
// swaps the two projective points under an all-ones-or-zero mask built
// from the key bit, as the chip's CSWAP does, then adds and doubles in
// fixed slots. No branch and no memory index depends on a key bit, in
// the Go step or in the amd64 assembly ladder.
//
// A deliberately leaky double-and-add baseline is included for the
// timing-attack experiment (E3).
package ec

import (
	"errors"
	"fmt"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// Point is an affine curve point; Inf marks the point at infinity.
type Point struct {
	X, Y gf2m.Element
	Inf  bool
}

// Infinity returns the point at infinity (the group identity).
func Infinity() Point { return Point{Inf: true} }

// Equal reports whether p and q are the same point.
func (p Point) Equal(q Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Curve holds the domain parameters of a binary Weierstrass curve
// whose base point generates a prime-order subgroup.
type Curve struct {
	Name     string
	A, B     gf2m.Element
	Gx, Gy   gf2m.Element
	Order    *modn.Modulus // prime order of the base-point subgroup
	Cofactor uint64
}

// K163 returns the NIST Koblitz curve K-163, the curve of the paper's
// prototype chip (FIPS 186-3 [1]).
func K163() *Curve {
	return &Curve{
		Name:     "K-163",
		A:        gf2m.One(),
		B:        gf2m.One(),
		Gx:       gf2m.MustFromHex("2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8"),
		Gy:       gf2m.MustFromHex("289070fb05d38ff58321f2e800536d538ccdaa3d9"),
		Order:    modn.MustModulusFromHex("4000000000000000000020108a2e0cc0d99f8a5ef"),
		Cofactor: 2,
	}
}

// B163 returns the NIST random binary curve B-163 over the same field,
// used to confirm that nothing in the module depends on the Koblitz
// structure.
func B163() *Curve {
	return &Curve{
		Name:     "B-163",
		A:        gf2m.One(),
		B:        gf2m.MustFromHex("20a601907b8c953ca1481eb10512f78744a3205fd"),
		Gx:       gf2m.MustFromHex("3f0eba16286a2d57ea0991168d4994637e8343e36"),
		Gy:       gf2m.MustFromHex("0d51fbc6c71a0094fa2cdd545b11c5c0c797324f1"),
		Order:    modn.MustModulusFromHex("40000000000000000000292fe77e70c12a4234c33"),
		Cofactor: 2,
	}
}

// Generator returns the curve's base point.
func (c *Curve) Generator() Point { return Point{X: c.Gx, Y: c.Gy} }

// OnCurve reports whether p satisfies y^2 + xy = x^3 + ax^2 + b.
// The point at infinity is on the curve.
func (c *Curve) OnCurve(p Point) bool {
	if p.Inf {
		return true
	}
	lhs := gf2m.Add(gf2m.Sqr(p.Y), gf2m.Mul(p.X, p.Y))
	x2 := gf2m.Sqr(p.X)
	rhs := gf2m.Add(gf2m.Add(gf2m.Mul(x2, p.X), gf2m.Mul(c.A, x2)), c.B)
	return lhs.Equal(rhs)
}

// Neg returns -p = (x, x+y).
func (c *Curve) Neg(p Point) Point {
	if p.Inf {
		return p
	}
	return Point{X: p.X, Y: gf2m.Add(p.X, p.Y)}
}

// Add returns p + q under the affine group law.
func (c *Curve) Add(p, q Point) Point {
	if p.Inf {
		return q
	}
	if q.Inf {
		return p
	}
	if p.X.Equal(q.X) {
		if p.Y.Equal(q.Y) {
			return c.Double(p)
		}
		// q == -p
		return Infinity()
	}
	// lambda = (y1+y2)/(x1+x2)
	lambda := gf2m.Div(gf2m.Add(p.Y, q.Y), gf2m.Add(p.X, q.X))
	x3 := gf2m.Add(gf2m.Add(gf2m.Add(gf2m.Sqr(lambda), lambda), gf2m.Add(p.X, q.X)), c.A)
	y3 := gf2m.Add(gf2m.Add(gf2m.Mul(lambda, gf2m.Add(p.X, x3)), x3), p.Y)
	return Point{X: x3, Y: y3}
}

// Double returns 2p.
func (c *Curve) Double(p Point) Point {
	if p.Inf || p.X.IsZero() {
		// x = 0 is the unique point of order two (y = sqrt(b)).
		return Infinity()
	}
	lambda := gf2m.Add(p.X, gf2m.Div(p.Y, p.X))
	x3 := gf2m.Add(gf2m.Add(gf2m.Sqr(lambda), lambda), c.A)
	y3 := gf2m.Add(gf2m.Sqr(p.X), gf2m.Mul(gf2m.Add(lambda, gf2m.One()), x3))
	return Point{X: x3, Y: y3}
}

// ScalarMulDoubleAndAdd computes k*p with the textbook left-to-right
// double-and-add. The running time depends on both the bit length and
// the Hamming weight of k — this is the *insecure baseline* of the
// timing experiment (paper §7: timing attacks are prevented by the
// Montgomery powering ladder, not by this).
func (c *Curve) ScalarMulDoubleAndAdd(k modn.Scalar, p Point) Point {
	r := Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = c.Double(r)
		if k.Bit(i) == 1 {
			r = c.Add(r, p)
		}
	}
	return r
}

// DoubleAndAddOpCount returns the (doublings, additions) the leaky
// baseline's microcode (coproc.BuildDoubleAndAddProgram) executes for
// scalar k — the quantity a timing attacker observes. The accumulator
// starts at P after the top set bit, so that bit costs neither: k = 0
// and k = 1 run none. Exposed for the E3 timing experiment.
func DoubleAndAddOpCount(k modn.Scalar) (doubles, adds int) {
	if k.BitLen() == 0 {
		return 0, 0
	}
	return k.BitLen() - 1, k.Weight() - 1
}

// LadderState is the projective state of the x-only Montgomery
// powering ladder: (X0:Z0) represents x(R0) and (X1:Z1) represents
// x(R1) with the invariant R1 - R0 = P throughout. The co-processor's
// six working registers hold exactly this state plus two temporaries.
type LadderState struct {
	X0, Z0, X1, Z1 gf2m.Element
}

// NewLadderState initializes the complete ladder at (R0, R1) = (O, P)
// where P has affine x-coordinate x. If lambda and mu are nonzero the
// projective representations are randomized (the paper's randomized
// projective coordinates DPA countermeasure); pass zero elements to
// get the deterministic unit representation.
func NewLadderState(x, lambda, mu gf2m.Element) LadderState {
	s := LadderState{
		X0: gf2m.One(), Z0: gf2m.Zero(), // O = (1 : 0)
		X1: x, Z1: gf2m.One(),
	}
	if !lambda.IsZero() {
		s.X0 = lambda // (lambda : 0) is still O
	}
	if !mu.IsZero() {
		s.X1 = gf2m.Mul(s.X1, mu)
		s.Z1 = mu
	}
	return s
}

// LadderBits is the fixed number of ladder iterations: every scalar is
// processed MSB-first over the full 163-bit register, so the iteration
// count — and with constant-cycle instructions the total cycle count —
// is independent of the scalar value. This is the paper's algorithm-
// plus-architecture timing countermeasure.
const LadderBits = 163

// LadderOptions configures a ladder scalar multiplication.
type LadderOptions struct {
	// Rand supplies uniform uint64 values for the randomized
	// projective coordinates countermeasure. nil disables RPC (the
	// weakened configuration of the paper's white-box DPA evaluation).
	Rand func() uint64
	// FixedLambda/FixedMu force specific randomization values; used by
	// the "countermeasure enabled but randomness known to the
	// attacker" white-box experiment of §7. Only honoured when Rand is
	// nil and the values are nonzero.
	FixedLambda, FixedMu gf2m.Element
}

func randNonZero(src func() uint64) gf2m.Element {
	for {
		e := gf2m.FromWords(src(), src(), src())
		if !e.IsZero() {
			return e
		}
	}
}

// ladder is what one ladder run precomputes: x(P) prepared for its
// product in every step (on the portable path, its comb table) and,
// unless √b = 1, √b. In characteristic 2, X⁴ + b·Z⁴ = (X² + √b·Z²)², so
// the doubling's X' costs one squaring plus a multiplication by √b, and
// none when √b = 1. That holds on K-163, whose b = 1 is what the paper's
// Koblitz choice buys. The branch reads a public curve constant, never
// key or mask data.
type ladder struct {
	x          gf2m.Precomp
	sqrtB      gf2m.Precomp
	sqrtBIsOne bool
}

func newLadder(x, b gf2m.Element) ladder {
	l := ladder{x: gf2m.Precompute(x)}
	sqrtB := gf2m.Sqrt(b)
	l.sqrtBIsOne = sqrtB.IsOne()
	if !l.sqrtBIsOne {
		l.sqrtB = gf2m.Precompute(sqrtB)
	}
	return l
}

// cswap exchanges (X0, Z0) and (X1, Z1) when mask is all ones and
// leaves them when it is zero: the chip's CSWAP, as XORs under a mask,
// with no branch and no memory index on the mask.
func (s *LadderState) cswap(mask uint64) {
	for i := range s.X0 {
		t := (s.X0[i] ^ s.X1[i]) & mask
		s.X0[i] ^= t
		s.X1[i] ^= t
		t = (s.Z0[i] ^ s.Z1[i]) & mask
		s.Z0[i] ^= t
		s.Z1[i] ^= t
	}
}

// step is one ladder iteration in fixed slots, Step's bit = 0 branch:
// slot 1 becomes x(R0 + R1) by MAdd, with x·Z3 + t1·t2 reduced once,
// and slot 0 doubles in place by MDouble with X' = (X² + √b·Z²)². MAdd
// is symmetric in its two operands, so on a state whose slots were
// swapped it computes Step's bit = 1 branch. Every field operation is
// exact, so the state equals Step's word for word.
func (l *ladder) step(s *LadderState) {
	var t1, t2 gf2m.Element
	var acc [6]uint64
	gf2m.MulTo(&t1, &s.X0, &s.Z1)
	gf2m.MulTo(&t2, &s.X1, &s.Z0)
	s.Z1 = gf2m.Add(t1, t2)
	gf2m.SqrTo(&s.Z1, &s.Z1)
	l.x.MulNoReduce(&acc, &s.Z1)
	gf2m.MulAcc(&acc, &t1, &t2)
	gf2m.Reduce(&s.X1, &acc)

	gf2m.SqrTo(&s.X0, &s.X0)
	gf2m.SqrTo(&s.Z0, &s.Z0)
	t1 = s.Z0
	if !l.sqrtBIsOne {
		l.sqrtB.MulTo(&t1, &t1)
	}
	t1 = gf2m.Add(s.X0, t1)
	gf2m.MulTo(&s.Z0, &s.X0, &s.Z0)
	gf2m.SqrTo(&s.X0, &t1)
}

// ladderX runs the complete x-only ladder over all 163 bit positions
// and returns the final projective state. λ and μ are drawn before
// anything else, so the caller's random stream is consumed as always.
// On K-163, on an amd64 CPU with PCLMULQDQ, the loop is one assembly
// call (ladder_amd64.s); elsewhere it is ladder.steps. Both reach the
// Step loop's state word for word.
func (c *Curve) ladderX(k modn.Scalar, x gf2m.Element, opt LadderOptions) LadderState {
	var lambda, mu gf2m.Element
	switch {
	case opt.Rand != nil:
		lambda = randNonZero(opt.Rand)
		mu = randNonZero(opt.Rand)
	default:
		lambda, mu = opt.FixedLambda, opt.FixedMu
	}
	s := NewLadderState(x, lambda, mu)
	l := newLadder(x, c.B)
	l.run(&s, &x, &k)
	return s
}

// steps runs the ladder over all LadderBits bits of k on s. It keeps
// R0 and R1 in fixed slots, swapped whenever the bit just processed was
// 1: before each step it swaps on the bit XOR the previous one, and
// one last swap on the final bit puts R0 back in slot 0. The chip's
// microcode swaps in and out on each bit; both reach the same state.
// There is no branch on a key bit: either bit value runs the same
// instructions on the same addresses, and the bit only builds the
// all-ones-or-zero swap mask.
func (l *ladder) steps(s *LadderState, k *modn.Scalar) {
	var prev uint64
	for i := LadderBits - 1; i >= 0; i-- {
		bit := uint64(k.Bit(i))
		s.cswap(-(bit ^ prev))
		l.step(s)
		prev = bit
	}
	s.cswap(-prev)
}

// XOnlyScalarMul returns the affine x-coordinate of k*P given only the
// affine x-coordinate of P. It reports ok = false when k*P is the
// point at infinity. This is the operation the identification
// protocol needs for d = xcoord(r*Y).
func (c *Curve) XOnlyScalarMul(k modn.Scalar, x gf2m.Element, opt LadderOptions) (gf2m.Element, bool) {
	s := c.ladderX(k, x, opt)
	if s.Z0.IsZero() {
		return gf2m.Zero(), false
	}
	return gf2m.Div(s.X0, s.Z0), true
}

// RecoverY recovers the affine result of the ladder including the
// y-coordinate (paper Algorithm 1, "RecoverY(P, R)") from the final
// state s, using the López–Dahab recovery formula
//
//	y0 = (x0 + x) * [ (x0 + x)(x1 + x) + x^2 + y ] / x  +  y
//
// where (x, y) = P, x0 = X0/Z0 = x(kP) and x1 = X1/Z1 = x((k+1)P).
// The three divisions share one inversion of Z0·Z1·x (Montgomery's
// trick); inversion is exact, so each quotient is the one Div gives.
// It requires Z0, Z1 and x nonzero.
func (c *Curve) RecoverY(p Point, s LadderState) Point {
	z01 := gf2m.Mul(s.Z0, s.Z1)
	inv := gf2m.Inv(gf2m.Mul(z01, p.X))
	invZ01 := gf2m.Mul(inv, p.X) // 1/(Z0·Z1)
	invX := gf2m.Mul(inv, z01)   // 1/x
	x0 := gf2m.Mul(gf2m.Mul(s.X0, s.Z1), invZ01)
	x1 := gf2m.Mul(gf2m.Mul(s.X1, s.Z0), invZ01)
	t0 := gf2m.Add(x0, p.X)
	t1 := gf2m.Add(x1, p.X)
	acc := gf2m.Add(gf2m.Mul(t0, t1), gf2m.Add(gf2m.Sqr(p.X), p.Y))
	y0 := gf2m.Add(gf2m.Mul(gf2m.Mul(t0, acc), invX), p.Y)
	return Point{X: x0, Y: y0}
}

// ScalarMulLadder computes k*P with the Montgomery powering ladder,
// including y-recovery. It requires p.X != 0 (the order-2 point and O
// are rejected: the protocol layer never feeds them) and k reduced
// modulo the group order.
func (c *Curve) ScalarMulLadder(k modn.Scalar, p Point, opt LadderOptions) (Point, error) {
	if p.Inf || p.X.IsZero() {
		return Point{}, errors.New("ec: ladder requires a finite point with x != 0")
	}
	if k.Cmp(c.Order.N()) >= 0 {
		return Point{}, errors.New("ec: scalar not reduced modulo the group order")
	}
	s := c.ladderX(k, p.X, opt)
	switch {
	case s.Z0.IsZero():
		// k = 0 (mod ord(P)).
		return Infinity(), nil
	case s.Z1.IsZero():
		// k+1 = 0, i.e. kP = -P.
		return c.Neg(p), nil
	}
	return c.RecoverY(p, s), nil
}

// SolveY returns a y-coordinate for the given x if one exists:
// substituting z = y/x reduces the curve equation to
// z^2 + z = x + a + b/x^2, solvable iff Tr(x + a + b/x^2) = 0.
// For x = 0 the unique solution is y = sqrt(b).
func (c *Curve) SolveY(x gf2m.Element) (gf2m.Element, bool) {
	if x.IsZero() {
		return gf2m.Sqrt(c.B), true
	}
	z, ok := c.solveZ(x, gf2m.Div(c.B, gf2m.Sqr(x)))
	if !ok {
		return gf2m.Zero(), false
	}
	return gf2m.Mul(x, z), true
}

// solveZ returns z = H(x + a + b/x^2), given bx = b/x^2 for x != 0. It
// solves z^2 + z = x + a + b/x^2 when that has a solution, which it
// reports, and y = x·z is then a y-coordinate for x.
func (c *Curve) solveZ(x, bx gf2m.Element) (gf2m.Element, bool) {
	rhs := gf2m.Add(gf2m.Add(x, c.A), bx)
	if gf2m.Trace(rhs) != 0 {
		return gf2m.Zero(), false
	}
	return gf2m.HalfTrace(rhs), true
}

// RandomPoint returns a uniformly random point of the prime-order
// subgroup (cofactor-cleared), never O and never the order-2 point: a
// RandomPoints draw of one.
func (c *Curve) RandomPoint(src func() uint64) Point {
	var p [1]Point
	c.RandomPoints(p[:], src)
	return p[0]
}

// pointBlock is the most candidates RandomPoints solves with one
// shared inversion.
const pointBlock = 64

// RandomPoints fills dst with uniformly random points of the
// prime-order subgroup, never O and never the order-2 point. A
// candidate is x = three words of src; it is kept when
// z^2 + z = x + a + b/x^2 has a solution (see SolveY) and the point
// (x, x·z), its cofactor cleared, is neither O nor has x = 0. dst
// receives the kept points in draw order, so a call fills dst as
// len(dst) calls of RandomPoint would, and leaves src on the same word.
//
// Candidates are drawn in blocks of at most min(pointBlock, points
// still needed): every point takes at least one candidate, so no word
// past the last kept candidate is drawn. One Inv serves a block: the
// nonzero x^2 are inverted together (Montgomery's trick). The first
// doubling of the cofactor clearing needs no inversion either: with
// y = x·z, 2P has λ = x + z and, since z^2 + z = x + a + b/x^2,
// x(2P) = λ^2 + λ + a = x^2 + b/x^2, the field elements Double gives.
func (c *Curve) RandomPoints(dst []Point, src func() uint64) {
	var xs, sq, inv [pointBlock]gf2m.Element
	for len(dst) > 0 {
		k := min(pointBlock, len(dst))
		for i := range xs[:k] {
			xs[i] = gf2m.FromWords(src(), src(), src())
			sq[i] = gf2m.Sqr(xs[i])
		}
		invertNonZero(inv[:k], sq[:k])
		n := 0
		for i, x := range xs[:k] {
			if p, ok := c.candidatePoint(x, sq[i], inv[i]); ok {
				dst[n] = p
				n++
			}
		}
		dst = dst[n:]
	}
}

// candidatePoint is RandomPoints' test of one candidate x, given x^2
// and its inverse: the cofactor-cleared point, or false when x is
// rejected.
func (c *Curve) candidatePoint(x, xx, invXX gf2m.Element) (Point, bool) {
	if x.IsZero() {
		// (0, sqrt(b)) has order 2.
		return Point{}, false
	}
	bx := gf2m.Mul(c.B, invXX)
	z, ok := c.solveZ(x, bx)
	if !ok {
		return Point{}, false
	}
	if c.Cofactor < 2 {
		return Point{X: x, Y: gf2m.Mul(x, z)}, true
	}
	x2 := gf2m.Add(xx, bx)
	if x2.IsZero() {
		return Point{}, false
	}
	lambda := gf2m.Add(x, z)
	p := Point{X: x2, Y: gf2m.Add(xx, gf2m.Mul(gf2m.Add(lambda, gf2m.One()), x2))}
	for h := c.Cofactor >> 1; h > 1; h >>= 1 {
		p = c.Double(p)
	}
	if p.Inf || p.X.IsZero() {
		return Point{}, false
	}
	return p, true
}

// invertNonZero sets inv[i] = 1/s[i] for every nonzero s[i], and
// inv[i] = 0 where s[i] = 0, with one Inv (Montgomery's trick).
// Inversion is exact, so each inv[i] equals gf2m.Inv(s[i]).
func invertNonZero(inv, s []gf2m.Element) {
	acc := gf2m.One()
	for i, e := range s {
		inv[i] = acc
		if !e.IsZero() {
			acc = gf2m.Mul(acc, e)
		}
	}
	a := gf2m.Inv(acc)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].IsZero() {
			inv[i] = gf2m.Zero()
			continue
		}
		inv[i], a = gf2m.Mul(a, inv[i]), gf2m.Mul(a, s[i])
	}
}

// Compress encodes p as its x-coordinate plus one bit: the low bit of
// z = y/x (standard binary-curve point compression). The point at
// infinity and the order-2 point are not encodable.
func (c *Curve) Compress(p Point) ([]byte, error) {
	if p.Inf || p.X.IsZero() {
		return nil, errors.New("ec: point not compressible")
	}
	z := gf2m.Div(p.Y, p.X)
	out := make([]byte, 1+gf2m.ByteLen)
	out[0] = byte(2 | z.Bit(0))
	copy(out[1:], p.X.Bytes())
	return out, nil
}

// Decompress recovers a point from its compressed encoding and
// validates that it lies on the curve.
func (c *Curve) Decompress(b []byte) (Point, error) {
	if len(b) != 1+gf2m.ByteLen || b[0]&^1 != 2 {
		return Point{}, errors.New("ec: malformed compressed point")
	}
	x := gf2m.FromBytes(b[1:])
	if x.IsZero() {
		return Point{}, errors.New("ec: x = 0 not decodable")
	}
	z, ok := c.solveZ(x, gf2m.Div(c.B, gf2m.Sqr(x)))
	if !ok {
		return Point{}, errors.New("ec: no point with this x-coordinate")
	}
	y := gf2m.Mul(x, z)
	if z.Bit(0) != uint(b[0]&1) {
		y = gf2m.Add(y, x) // the conjugate solution
	}
	return Point{X: x, Y: y}, nil
}

// Validate checks that p is a valid protocol input: on the curve, not
// O, and in the prime-order subgroup. This is the fault-attack /
// invalid-curve-attack guard the paper's threat analysis requires
// before any secret-dependent computation.
func (c *Curve) Validate(p Point) error {
	if p.Inf {
		return errors.New("ec: point at infinity")
	}
	if !c.OnCurve(p) {
		return errors.New("ec: point not on curve")
	}
	if c.Cofactor == 2 {
		// Seroussi's criterion: on a cofactor-2 binary curve
		// y^2 + xy = x^3 + ax^2 + b, a curve point (x, y) lies in
		// the prime-order subgroup iff Tr(x) = Tr(a), with the
		// x = 0 order-2 point checked separately. This replaces
		// an order-n scalar multiplication (~160 field inversions)
		// with one trace evaluation.
		if p.X.IsZero() || gf2m.Trace(p.X) != gf2m.Trace(c.A) {
			return fmt.Errorf("ec: point not in the order-%s subgroup", c.Order.N())
		}
		return nil
	}
	q := c.ScalarMulDoubleAndAdd(c.Order.N(), p)
	if !q.Inf {
		return fmt.Errorf("ec: point not in the order-%s subgroup", c.Order.N())
	}
	return nil
}

// String renders a point for diagnostics.
func (p Point) String() string {
	if p.Inf {
		return "(infinity)"
	}
	return fmt.Sprintf("(%s, %s)", p.X, p.Y)
}
