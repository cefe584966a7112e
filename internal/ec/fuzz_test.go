package ec

import (
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// FuzzDecompress: arbitrary bytes must never panic, and anything the
// decoder accepts must be a point on the curve that re-compresses to
// the same encoding — the attack surface of every received protocol
// message.
func FuzzDecompress(f *testing.F) {
	c := K163()
	if enc, err := c.Compress(c.Generator()); err == nil {
		f.Add(enc)
		bad := append([]byte{}, enc...)
		bad[0] = 0x04
		f.Add(bad)
	}
	f.Add(make([]byte, 22))
	f.Add([]byte{0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := c.Decompress(data)
		if err != nil {
			return
		}
		if !c.OnCurve(p) {
			t.Fatal("decoder accepted an off-curve point")
		}
		enc, err := c.Compress(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != len(data) {
			t.Fatal("length changed across round trip")
		}
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatal("re-compression differs from accepted input")
			}
		}
	})
}

// recoverYFromAffine is RecoverY's formula on two affine
// x-coordinates, dividing by x on its own: the oracle for the
// shared-inversion form.
func recoverYFromAffine(p Point, x0, x1 gf2m.Element) Point {
	t0 := gf2m.Add(x0, p.X)
	t1 := gf2m.Add(x1, p.X)
	acc := gf2m.Add(gf2m.Mul(t0, t1), gf2m.Add(gf2m.Sqr(p.X), p.Y))
	y0 := gf2m.Add(gf2m.Div(gf2m.Mul(t0, acc), p.X), p.Y)
	return Point{X: x0, Y: y0}
}

// FuzzLadderMatchesStep: the ladder (ladderX, which on K-163 runs the
// assembly ladder where the CPU has PCLMULQDQ) and its Go loop
// (ladder.steps) must reach the same projective state as the
// documented Step formulas, word for word, and the shared-inversion
// y-recovery must give the point that Div, Div and the two-x recovery
// formula give — on K-163, where the doubling skips its multiply by
// √b = 1, and on B-163, where it does not. The scalar is reduced mod n,
// or mirrored to n−1−k; the seeds reach k = 0, 1, n−2 and n−1, so both
// early returns and the shared inversion run. λ = 0 or μ = 0 is the
// unit representation.
func FuzzLadderMatchesStep(f *testing.F) {
	for _, mirror := range []bool{false, true} {
		f.Add(uint64(0), uint64(0), uint64(0), mirror, uint64(1), uint64(0), uint64(0))
		f.Add(uint64(1), uint64(0), uint64(0), mirror, uint64(2), uint64(3), uint64(5))
	}
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), false, uint64(3), ^uint64(0), uint64(1))
	curves := []*Curve{K163(), B163()}
	f.Fuzz(func(t *testing.T, k0, k1, k2 uint64, mirror bool, seed, lam, mu uint64) {
		for _, c := range curves {
			k := c.Order.Reduce(modn.Scalar{k0, k1, k2})
			if mirror {
				k = c.Order.Sub(c.Order.Neg(k), modn.One())
			}
			p := c.RandomPoint(rng.NewDRBG(seed).Uint64)
			opt := LadderOptions{FixedLambda: gf2m.FromUint64(lam), FixedMu: gf2m.FromUint64(mu)}

			want := NewLadderState(p.X, opt.FixedLambda, opt.FixedMu)
			for i := LadderBits - 1; i >= 0; i-- {
				want.Step(k.Bit(i), p.X, c.B)
			}
			if got := c.ladderX(k, p.X, opt); got != want {
				t.Fatalf("%s k=%v: ladder state %+v, Step loop %+v", c.Name, k, got, want)
			}
			loop := NewLadderState(p.X, opt.FixedLambda, opt.FixedMu)
			l := newLadder(p.X, c.B)
			if l.steps(&loop, &k); loop != want {
				t.Fatalf("%s k=%v: Go ladder loop state %+v, Step loop %+v", c.Name, k, loop, want)
			}

			var wantP Point
			switch {
			case want.Z0.IsZero():
				wantP = Infinity()
			case want.Z1.IsZero():
				wantP = c.Neg(p)
			default:
				wantP = recoverYFromAffine(p, gf2m.Div(want.X0, want.Z0), gf2m.Div(want.X1, want.Z1))
			}
			got, err := c.ScalarMulLadder(k, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(wantP) {
				t.Fatalf("%s k=%v: ScalarMulLadder %v, oracle %v", c.Name, k, got, wantP)
			}
			x, ok := c.XOnlyScalarMul(k, p.X, opt)
			if ok == wantP.Inf || ok && !x.Equal(wantP.X) {
				t.Fatalf("%s k=%v: XOnlyScalarMul (%v, %v), oracle %v", c.Name, k, x, ok, wantP)
			}
		}
	})
}
