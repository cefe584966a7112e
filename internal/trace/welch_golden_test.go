package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// welchGoldenPopulations builds the two seeded synthetic populations
// the golden folds: nA and nB traces of 6 samples. Column 0 is
// constant in both populations (zero variance: t must read 0), column
// 1 is constant in A only, column 2 differs in mean, column 3 in
// spread, column 4 spans 18 orders of magnitude and column 5 is noise.
func welchGoldenPopulations(nA, nB int) (a, b [][]float64) {
	x := xorshift64(0x5eed)
	gen := func(n int, pop float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			u := x.float()
			out[i] = []float64{
				2.5,
				2.5 + pop*x.float(),
				x.float() + 0.3*pop,
				(x.float() - 0.5) * (1 + 2*pop),
				(u + 0.5) * math.Pow(10, float64(9-18*(i%2))),
				x.float()*2 - 1,
			}
		}
		return out
	}
	return gen(nA, 0), gen(nB, 1)
}

// writeCurve hashes the IEEE-754 bits of a t-curve.
func writeCurve(h hash.Hash, ts []float64) {
	var buf [8]byte
	for _, v := range ts {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// welchAcc is the surface the golden drives on both orders.
type welchAcc interface {
	AddA([]float64) error
	AddB([]float64) error
	T() ([]float64, error)
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// welchGoldenDigest folds the populations three ways and hashes what
// each yields: the serial fold's t-curve and encoded bytes, the
// t-curve of three contiguous shards merged in shard order, and the
// t-curve of the serial fold after a codec round trip. merge folds one
// shard accumulator into another.
func welchGoldenDigest(t *testing.T, mk func() welchAcc, merge func(dst, src welchAcc) error) string {
	t.Helper()
	a, b := welchGoldenPopulations(37, 41)
	h := sha256.New()

	serial := mk()
	for i := 0; i < len(b); i++ {
		if i < len(a) {
			if err := serial.AddA(a[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := serial.AddB(b[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := serial.T()
	if err != nil {
		t.Fatal(err)
	}
	if ts[0] != 0 {
		t.Fatalf("zero-variance column reads t = %g, want 0", ts[0])
	}
	writeCurve(h, ts)
	blob, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(blob)

	merged := mk()
	for _, cut := range [][2]int{{0, 5}, {5, 23}, {23, 41}} {
		shard := mk()
		for i := cut[0]; i < cut[1]; i++ {
			if i < len(a) {
				if err := shard.AddA(a[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := shard.AddB(b[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := merge(merged, shard); err != nil {
			t.Fatal(err)
		}
	}
	if ts, err = merged.T(); err != nil {
		t.Fatal(err)
	}
	writeCurve(h, ts)

	decoded := mk()
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if ts, err = decoded.T(); err != nil {
		t.Fatal(err)
	}
	writeCurve(h, ts)
	return hex.EncodeToString(h.Sum(nil))
}

// TestWelchGoldenCurves pins the bits of both orders' t-curves and the
// encoded accumulators over seeded synthetic populations, with a
// zero-variance column, a shard-merged accumulator and a codec round
// trip. The batch oracles agree with the streaming tests only to
// 1e-12, and the determinism tests compare the code with itself, so
// this pin is what catches a one-ulp move. The constants were recorded
// from the two separate first- and second-order Welch types and must
// never be edited.
func TestWelchGoldenCurves(t *testing.T) {
	order1 := welchGoldenDigest(t, func() welchAcc { return NewOnlineWelch() },
		func(dst, src welchAcc) error { return dst.(*OnlineWelch).Merge(src.(*OnlineWelch)) })
	if want := "2d8f64211f323aeee3f60b02ac10896cc9b9e60950066ea19e1d4d2d839e8e06"; order1 != want {
		t.Errorf("first-order digest %s, recorded %s", order1, want)
	}
	order2 := welchGoldenDigest(t, func() welchAcc { return NewOnlineWelch2() },
		func(dst, src welchAcc) error { return dst.(*OnlineWelch2).Merge(src.(*OnlineWelch2)) })
	if want := "84bf56ba6aefa494be98f1b30394c4d99087ee641b07315116982c6d274c1f64"; order2 != want {
		t.Errorf("second-order digest %s, recorded %s", order2, want)
	}
}
