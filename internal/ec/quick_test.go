package ec

import (
	"testing"
	"testing/quick"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// Property-based tests (testing/quick) over the curve group.

func TestQuickSmallScalarLadderAgreement(t *testing.T) {
	c := K163()
	g := c.Generator()
	f := func(k uint16) bool {
		s := modn.FromUint64(uint64(k))
		want := c.ScalarMulDoubleAndAdd(s, g)
		got, err := c.ScalarMulLadder(s, g, LadderOptions{})
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNegIsInvolution(t *testing.T) {
	c := K163()
	f := func(w0, w1, w2 uint64) bool {
		x := gf2m.FromWords(w0, w1, w2)
		y, ok := c.SolveY(x)
		if !ok {
			return true
		}
		p := Point{X: x, Y: y}
		return c.Neg(c.Neg(p)).Equal(p) && c.Add(p, c.Neg(p)).Inf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolveYOnCurve(t *testing.T) {
	c := K163()
	f := func(w0, w1, w2 uint64) bool {
		x := gf2m.FromWords(w0, w1, w2)
		y, ok := c.SolveY(x)
		if !ok {
			return true
		}
		return c.OnCurve(Point{X: x, Y: y})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMDoubleMatchesAffine(t *testing.T) {
	// x-only doubling must agree with the affine group law wherever a
	// point with that x exists.
	c := K163()
	f := func(w0, w1, w2 uint64) bool {
		x := gf2m.FromWords(w0, w1, w2)
		if x.IsZero() {
			return true
		}
		y, ok := c.SolveY(x)
		if !ok {
			return true
		}
		p := Point{X: x, Y: y}
		d := c.Double(p)
		x2, z2 := MDouble(x, gf2m.One(), c.B)
		if z2.IsZero() {
			return d.Inf
		}
		return gf2m.Div(x2, z2).Equal(d.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMAddProjectiveInvariance(t *testing.T) {
	// MAdd's output class must not depend on the representative of the
	// inputs' projective classes.
	c := K163()
	f := func(w0, w1, w2, l0, m0 uint64) bool {
		x := gf2m.FromWords(w0, w1, w2)
		if x.IsZero() {
			return true
		}
		lam := gf2m.FromUint64(l0 | 1)
		mu := gf2m.FromUint64(m0 | 1)
		// State for 2P and 3P from a ladder start.
		s := NewLadderState(x, gf2m.Zero(), gf2m.Zero())
		s.Step(1, x, c.B)
		x3a, z3a := MAdd(s.X0, s.Z0, s.X1, s.Z1, x)
		x3b, z3b := MAdd(gf2m.Mul(s.X0, lam), gf2m.Mul(s.Z0, lam),
			gf2m.Mul(s.X1, mu), gf2m.Mul(s.Z1, mu), x)
		if z3a.IsZero() || z3b.IsZero() {
			return z3a.IsZero() == z3b.IsZero()
		}
		return gf2m.Div(x3a, z3a).Equal(gf2m.Div(x3b, z3b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectiveRepresentativeInvariance(t *testing.T) {
	// The ladder step's doubling of slot 0, with √b folded in, must take
	// any representative (λ·x : λ) of x(G) to x(2G), and a ladder started
	// from random representatives must agree with double-and-add.
	for _, c := range curvesUnderTest() {
		g := c.Generator()
		l := newLadder(g.X, c.B)
		f := func(l0, m0 uint64, k uint16) bool {
			lam := gf2m.FromUint64(l0 | 1)
			mu := gf2m.FromUint64(m0 | 1)
			st := LadderState{X0: gf2m.Mul(g.X, lam), Z0: lam, X1: g.X, Z1: gf2m.One()}
			l.step(&st)
			if st.Z0.IsZero() || !gf2m.Div(st.X0, st.Z0).Equal(c.Double(g).X) {
				return false
			}
			s := modn.FromUint64(uint64(k))
			got, err := c.ScalarMulLadder(s, g, LadderOptions{FixedLambda: lam, FixedMu: mu})
			if err != nil {
				return false
			}
			return got.Equal(c.ScalarMulDoubleAndAdd(s, g))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestQuickCompressionRoundTrip(t *testing.T) {
	c := K163()
	f := func(w0, w1, w2 uint64) bool {
		x := gf2m.FromWords(w0, w1, w2)
		if x.IsZero() {
			return true
		}
		y, ok := c.SolveY(x)
		if !ok {
			return true
		}
		for _, p := range []Point{{X: x, Y: y}, {X: x, Y: gf2m.Add(y, x)}} {
			enc, err := c.Compress(p)
			if err != nil {
				return false
			}
			got, err := c.Decompress(enc)
			if err != nil || !got.Equal(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
