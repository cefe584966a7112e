package ec

import "medsec/internal/gf2m"

// MAdd performs the x-only differential addition: given (Xa:Za) and
// (Xb:Zb) representing x(A) and x(B) with x(B-A) = x (affine), it
// returns the representation of x(A+B):
//
//	Z3 = (Xa*Zb + Xb*Za)^2
//	X3 = x*Z3 + (Xa*Zb)*(Xb*Za)
//
// 4 field multiplications and 1 squaring — the operation counts the
// co-processor microcode reproduces cycle for cycle. MAdd, MDouble and
// Step are the documented formulas; the ladder runs an equivalent
// step that reaches the same state with fewer field operations, and
// these are its test oracle.
func MAdd(xa, za, xb, zb, x gf2m.Element) (x3, z3 gf2m.Element) {
	t1 := gf2m.Mul(xa, zb)
	t2 := gf2m.Mul(xb, za)
	z3 = gf2m.Sqr(gf2m.Add(t1, t2))
	x3 = gf2m.Add(gf2m.Mul(x, z3), gf2m.Mul(t1, t2))
	return x3, z3
}

// MDouble performs the x-only doubling: given (X:Z) representing x(A)
// it returns the representation of x(2A):
//
//	X' = X^4 + b*Z^4
//	Z' = X^2 * Z^2
//
// 2 multiplications (one of them by the curve constant b) and 4
// squarings.
func MDouble(x, z, b gf2m.Element) (x2, z2 gf2m.Element) {
	xx := gf2m.Sqr(x)
	zz := gf2m.Sqr(z)
	z2 = gf2m.Mul(xx, zz)
	x2 = gf2m.Add(gf2m.Sqr(xx), gf2m.Mul(b, gf2m.Sqr(zz)))
	return x2, z2
}

// Step advances the ladder by one scalar bit (paper Algorithm 1):
//
//	bit = 1:  R0 <- R0+R1, R1 <- 2*R1
//	bit = 0:  R1 <- R0+R1, R0 <- 2*R0
//
// The software reference branches on the bit; the co-processor
// realizes the same dataflow with conditional swaps whose control
// signals are the subject of the circuit-level countermeasures.
func (s *LadderState) Step(bit uint, x, b gf2m.Element) {
	if bit == 1 {
		s.X0, s.Z0 = MAdd(s.X0, s.Z0, s.X1, s.Z1, x)
		s.X1, s.Z1 = MDouble(s.X1, s.Z1, b)
	} else {
		s.X1, s.Z1 = MAdd(s.X0, s.Z0, s.X1, s.Z1, x)
		s.X0, s.Z0 = MDouble(s.X0, s.Z0, b)
	}
}
