package modn

import (
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) over the scalar ring.

func qscalar(m *Modulus, a, b, c, d uint64) Scalar {
	return m.Reduce(Scalar{a, b, c, d})
}

func TestQuickAddCommutes(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2, b0, b1, b2 uint64) bool {
		a := qscalar(m, a0, a1, a2, 0)
		b := qscalar(m, b0, b1, b2, 0)
		return m.Add(a, b).Equal(m.Add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2, b0, b1, b2 uint64) bool {
		a := qscalar(m, a0, a1, a2, 0)
		b := qscalar(m, b0, b1, b2, 0)
		return m.Sub(m.Add(a, b), b).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReduceIdempotent(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2, a3 uint64) bool {
		r := m.Reduce(Scalar{a0, a1, a2, a3})
		return m.Reduce(r).Equal(r) && r.Cmp(m.N()) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulOneAndZero(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2 uint64) bool {
		a := qscalar(m, a0, a1, a2, 0)
		return m.Mul(a, One()).Equal(a) && m.Mul(a, Zero()).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvMul(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2 uint64) bool {
		a := qscalar(m, a0, a1, a2, 0)
		if a.IsZero() {
			return true
		}
		return m.Mul(a, m.Inv(a)).Equal(One())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	m := k163()
	f := func(a0, a1, a2 uint64) bool {
		a := qscalar(m, a0, a1, a2, 0)
		got, err := FromBytes(a.Bytes())
		return err == nil && got.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
