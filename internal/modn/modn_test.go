package modn

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// K-163 group order, the modulus every protocol in this module uses.
const k163OrderHex = "4000000000000000000020108a2e0cc0d99f8a5ef"

func k163() *Modulus { return MustModulusFromHex(k163OrderHex) }

func toBig(s Scalar) *big.Int {
	v := new(big.Int)
	for i := Words - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(s[i]))
	}
	return v
}

func fromBig(v *big.Int) Scalar {
	var s Scalar
	words := v.Bits()
	for i := 0; i < len(words) && i < Words; i++ {
		s[i] = uint64(words[i])
	}
	return s
}

func randScalarBelow(r *rand.Rand, m *Modulus) Scalar {
	return m.Rand(r.Uint64)
}

func TestParseHexMatchesBig(t *testing.T) {
	n := k163()
	want, ok := new(big.Int).SetString(k163OrderHex, 16)
	if !ok {
		t.Fatal("big.Int parse failed")
	}
	if toBig(n.N()).Cmp(want) != 0 {
		t.Fatalf("modulus parse mismatch: %v vs %v", toBig(n.N()), want)
	}
	if n.N().BitLen() != want.BitLen() {
		t.Fatalf("BitLen = %d, want %d", n.N().BitLen(), want.BitLen())
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	m := k163()
	nBig := toBig(m.N())
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randScalarBelow(r, m), randScalarBelow(r, m)
		sum := m.Add(a, b)
		want := new(big.Int).Add(toBig(a), toBig(b))
		want.Mod(want, nBig)
		if toBig(sum).Cmp(want) != 0 {
			t.Fatalf("Add(%v,%v) = %v, want %v", a, b, sum, want)
		}
		diff := m.Sub(a, b)
		want = new(big.Int).Sub(toBig(a), toBig(b))
		want.Mod(want, nBig)
		if toBig(diff).Cmp(want) != 0 {
			t.Fatalf("Sub mismatch")
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	m := k163()
	nBig := toBig(m.N())
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randScalarBelow(r, m), randScalarBelow(r, m)
		got := m.Mul(a, b)
		want := new(big.Int).Mul(toBig(a), toBig(b))
		want.Mod(want, nBig)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("Mul(%v,%v) = %v, want %v", a, b, got, fromBig(want))
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	m := k163()
	maxRed := m.Sub(m.N(), One()) // n-1
	got := m.Mul(maxRed, maxRed)  // (n-1)^2 = 1 mod n
	if !got.Equal(One()) {
		t.Fatalf("(n-1)^2 mod n = %v, want 1", got)
	}
	if !m.Mul(Zero(), maxRed).IsZero() {
		t.Fatal("0 * x != 0")
	}
	if !m.Mul(One(), maxRed).Equal(maxRed) {
		t.Fatal("1 * x != x")
	}
}

func TestReduceAgainstBig(t *testing.T) {
	m := k163()
	nBig := toBig(m.N())
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		var s Scalar
		for j := range s {
			s[j] = r.Uint64()
		}
		got := m.Reduce(s)
		want := new(big.Int).Mod(toBig(s), nBig)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("Reduce(%v) = %v, want %v", s, got, fromBig(want))
		}
	}
}

func TestNeg(t *testing.T) {
	m := k163()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := randScalarBelow(r, m)
		if !m.Add(a, m.Neg(a)).IsZero() {
			t.Fatal("a + (-a) != 0")
		}
	}
	if !m.Neg(Zero()).IsZero() {
		t.Fatal("-0 != 0")
	}
}

func TestExpAgainstBig(t *testing.T) {
	m := k163()
	nBig := toBig(m.N())
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		a := randScalarBelow(r, m)
		e := randScalarBelow(r, m)
		got := m.Exp(a, e)
		want := new(big.Int).Exp(toBig(a), toBig(e), nBig)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("Exp mismatch")
		}
	}
	if !m.Exp(Zero(), Zero()).Equal(One()) {
		t.Fatal("0^0 != 1 (empty product convention)")
	}
}

func TestInvFermat(t *testing.T) {
	m := k163() // prime order
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		a := randScalarBelow(r, m)
		if a.IsZero() {
			continue
		}
		if !m.Mul(a, m.Inv(a)).Equal(One()) {
			t.Fatalf("a * a^-1 != 1 for a=%v", a)
		}
	}
	if !m.Inv(Zero()).IsZero() {
		t.Fatal("Inv(0) != 0")
	}
}

func TestOrderIsPrime(t *testing.T) {
	// The protocol-security arguments require a prime group order;
	// verify our constant with math/big's Miller-Rabin.
	n := toBig(k163().N())
	if !n.ProbablyPrime(64) {
		t.Fatal("K-163 order constant is not prime; constant corrupted")
	}
	if n.BitLen() != 163 {
		t.Fatalf("order bit length %d, want 163", n.BitLen())
	}
}

func TestRandIsReducedAndCoversRange(t *testing.T) {
	m := k163()
	r := rand.New(rand.NewSource(7))
	sawHighWord := false
	for i := 0; i < 1000; i++ {
		s := m.Rand(r.Uint64)
		if s.Cmp(m.N()) >= 0 {
			t.Fatalf("Rand produced unreduced scalar %v", s)
		}
		if s[2]>>30 != 0 { // top region of the 163-bit range
			sawHighWord = true
		}
	}
	if !sawHighWord {
		t.Fatal("Rand never produced values near the modulus; sampling biased")
	}
	for i := 0; i < 100; i++ {
		if m.RandNonZero(r.Uint64).IsZero() {
			t.Fatal("RandNonZero returned zero")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := k163()
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		s := randScalarBelow(r, m)
		b := s.Bytes()
		if len(b) != ByteLen {
			t.Fatalf("length %d", len(b))
		}
		got, err := FromBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip failed for %v", s)
		}
	}
	if _, err := FromBytes(make([]byte, ByteLen+1)); err == nil {
		t.Fatal("oversized encoding accepted")
	}
	short, err := FromBytes([]byte{0x12, 0x34})
	if err != nil || !short.Equal(FromUint64(0x1234)) {
		t.Fatalf("short encoding mishandled: %v %v", short, err)
	}
}

func TestCmpAndBitHelpers(t *testing.T) {
	a := FromUint64(5)
	b := FromUint64(7)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp broken")
	}
	if a.Bit(0) != 1 || a.Bit(1) != 0 || a.Bit(2) != 1 || a.Bit(500) != 0 || a.Bit(-1) != 0 {
		t.Fatal("Bit broken")
	}
	if a.BitLen() != 3 || Zero().BitLen() != 0 {
		t.Fatal("BitLen broken")
	}
	if a.Weight() != 2 {
		t.Fatal("Weight broken")
	}
}

func TestStringAndHexRoundTrip(t *testing.T) {
	m := k163()
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		s := randScalarBelow(r, m)
		if got := MustScalarFromHex(s.String()); !got.Equal(s) {
			t.Fatalf("hex round trip failed for %v", s)
		}
	}
	if Zero().String() != "0" {
		t.Fatal("Zero string wrong")
	}
}

func TestNewModulusRejectsZero(t *testing.T) {
	if _, err := NewModulus([Words]uint64{}); err != ErrZeroModulus {
		t.Fatal("zero modulus accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "zz", "1________"} {
		if _, err := parseHex(bad); err == nil {
			t.Fatalf("parseHex(%q) accepted", bad)
		}
	}
	// 65 hex digits overflow 256 bits.
	long := "1"
	for i := 0; i < 64; i++ {
		long += "0"
	}
	if _, err := parseHex(long); err == nil {
		t.Fatal("overlong hex accepted")
	}
}

func TestRingAxiomsQuick(t *testing.T) {
	m := k163()
	cfg := &quick.Config{MaxCount: 200}
	distributes := func(a0, a1, a2, b0, b1, b2, c0, c1, c2 uint64) bool {
		a := m.Reduce(Scalar{a0, a1, a2, 0})
		b := m.Reduce(Scalar{b0, b1, b2, 0})
		c := m.Reduce(Scalar{c0, c1, c2, 0})
		return m.Mul(a, m.Add(b, c)).Equal(m.Add(m.Mul(a, b), m.Mul(a, c)))
	}
	if err := quick.Check(distributes, cfg); err != nil {
		t.Fatal(err)
	}
	assoc := func(a0, b0, c0 uint64) bool {
		a := m.Reduce(Scalar{a0, a0 ^ 0xdead, a0 >> 3, 0})
		b := m.Reduce(Scalar{b0, b0 + 7, 0, 0})
		c := m.Reduce(Scalar{c0, 1, c0, 0})
		return m.Mul(m.Mul(a, b), c).Equal(m.Mul(a, m.Mul(b, c)))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkModMul(b *testing.B) {
	m := k163()
	r := rand.New(rand.NewSource(1))
	x, y := m.Rand(r.Uint64), m.Rand(r.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = m.Mul(x, y)
	}
}

func BenchmarkModInv(b *testing.B) {
	m := k163()
	r := rand.New(rand.NewSource(1))
	x := m.Rand(r.Uint64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = m.Inv(m.Add(x, One()))
	}
}
