package ec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/rng"
)

// TestRandomPointsGolden pins the point stream: the SHA-256 of the
// first 2 000 points RandomPoint draws one at a time from a DRBG, and
// of the source's next word, on K-163 and B-163 at two seeds. The
// digests were recorded from the draw that solved and doubled each
// candidate with its own inversions; every attack campaign's input
// points, and so every CPA golden, rest on this stream.
func TestRandomPointsGolden(t *testing.T) {
	for _, tc := range []struct {
		curve *Curve
		seed  uint64
		want  string
	}{
		{K163(), 1, "a897b6de34f202295b89ab4b82b9fbdff880167224fdfeaa7e2aeb95e13557f9"},
		{K163(), 6, "1a19fd97aa2e224fc622168ba61846a34af5c3a9d75fa264a3add1f87ab61fb0"},
		{B163(), 1, "0ebd32ceca5492cfbc6b076da0e8921dda608de294a63faa884d94693e7839ba"},
		{B163(), 6, "edfe33eb4b1f5aac9396185f3ee775c620cb14ac05604fd353d38ab428e15f5d"},
	} {
		src := rng.NewDRBG(tc.seed).Uint64
		h := sha256.New()
		for i := 0; i < 2000; i++ {
			p := tc.curve.RandomPoint(src)
			h.Write(p.X.Bytes())
			h.Write(p.Y.Bytes())
		}
		h.Write(binary.BigEndian.AppendUint64(nil, src()))
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s seed %d: digest %s, want %s", tc.curve.Name, tc.seed, got, tc.want)
		}
	}
}

// randomPointSerial is the draw RandomPoints replaced: one candidate
// at a time, SolveY's inversion and the cofactor's Double each.
func randomPointSerial(c *Curve, src func() uint64) Point {
	for {
		x := gf2m.FromWords(src(), src(), src())
		y, ok := c.SolveY(x)
		if !ok {
			continue
		}
		p := Point{X: x, Y: y}
		for h := c.Cofactor; h > 1; h >>= 1 {
			p = c.Double(p)
		}
		if p.Inf || p.X.IsZero() {
			continue
		}
		return p
	}
}

// FuzzRandomPointsMatchesSerial: a draw split into successive
// RandomPoints calls of the fuzzed lengths (0 to 129 points each, at
// most 600 in all) must return the serial oracle's points in order and
// leave the source on the oracle's next word. Besides K-163 and B-163,
// a cofactor-1 and a cofactor-4 copy of them reach the other clearing
// branches; their points need not lie in a prime-order subgroup, but
// both draws must still agree.
func FuzzRandomPointsMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0})
	f.Add(uint64(6), uint8(1), []byte{1, 2, 3, 64, 65, 129})
	f.Add(uint64(7), uint8(2), []byte{63, 0, 1})
	f.Add(uint64(9), uint8(3), []byte{100, 7})
	k1, b4 := K163(), B163()
	k1.Cofactor, b4.Cofactor = 1, 4
	curves := []*Curve{K163(), B163(), k1, b4}
	f.Fuzz(func(t *testing.T, seed uint64, which uint8, split []byte) {
		c := curves[int(which)%len(curves)]
		src, ref := rng.NewDRBG(seed).Uint64, rng.NewDRBG(seed).Uint64
		total := 0
		for _, b := range split {
			n := int(b) % 130
			if total+n > 600 {
				break
			}
			total += n
			got := make([]Point, n)
			c.RandomPoints(got, src)
			for i, p := range got {
				if want := randomPointSerial(c, ref); !p.Equal(want) {
					t.Fatalf("%s seed %d: point %d of a %d-point call is %v, serial %v", c.Name, seed, i, n, p, want)
				}
			}
		}
		if got, want := src(), ref(); got != want {
			t.Fatalf("%s seed %d: source ends on %#x, serial on %#x", c.Name, seed, got, want)
		}
	})
}

// BenchmarkRandomPoints prices one point: batch draws b.N points in one
// call, single one call per point (RandomPoint).
func BenchmarkRandomPoints(b *testing.B) {
	c := K163()
	b.Run("batch", func(b *testing.B) {
		src := rng.NewDRBG(1).Uint64
		dst := make([]Point, b.N)
		b.ResetTimer()
		c.RandomPoints(dst, src)
	})
	b.Run("single", func(b *testing.B) {
		src := rng.NewDRBG(1).Uint64
		var p Point
		for i := 0; i < b.N; i++ {
			p = c.RandomPoint(src)
		}
		pointSink = p
	})
}

var pointSink Point
