package ec

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// TestGoldenScalarMul pins K-163 scalar multiplication to the frozen
// kG vectors shared with the gf2m golden file.
func TestGoldenScalarMul(t *testing.T) {
	f, err := os.Open("../gf2m/testdata/k163_vectors.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := K163()
	sc := bufio.NewScanner(f)
	checked := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "kG\t") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			t.Fatalf("malformed kG line: %q", line)
		}
		k := modn.MustScalarFromHex(fields[1])
		wantX := gf2m.MustFromHex(fields[2])
		wantY := gf2m.MustFromHex(fields[3])
		// Through every implementation path.
		ladder, err := c.ScalarMulLadder(k, c.Generator(), LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !ladder.X.Equal(wantX) || !ladder.Y.Equal(wantY) {
			t.Fatalf("ladder kG mismatch for k=%s", fields[1])
		}
		da := c.ScalarMulDoubleAndAdd(k, c.Generator())
		if !da.Equal(ladder) {
			t.Fatal("double-and-add disagrees with golden")
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d kG vectors checked", checked)
	}
}

// TestLadderGoldenStates pins the ladder's projective output, not only
// its affine one: the SHA-256 of ladderX's final X0, Z0, X1 and Z1
// words, on K-163 and B-163, for the scalars 0, 1, n−2, n−1 and 12
// seeded random ones, each from the unit representation, from fixed
// full-width λ and μ, and from λ and μ drawn from a seeded DRBG (whose
// next word is hashed too). Affine results do not depend on the
// projective representation, so TestGoldenScalarMul cannot tell two
// ladder steps apart that reach different but equivalent states; this
// test can. The digests were recorded from the ladder that branched on
// the key bit and called the value-form field operations.
func TestLadderGoldenStates(t *testing.T) {
	for _, tc := range []struct {
		curve *Curve
		want  string
	}{
		{K163(), "bc4f63da9c3750009206749c708fede6af51757c724c42e73b1826464f156683"},
		{B163(), "44e38ca941d9e86d70e4f68c8f70a3c60b7a2644725f02fcc2f09c9a79014904"},
	} {
		c := tc.curve
		d := rng.NewDRBG(0x1add)
		n := c.Order.N()
		scalars := []modn.Scalar{
			modn.Zero(), modn.One(),
			c.Order.Sub(n, modn.FromUint64(2)), c.Order.Sub(n, modn.One()),
		}
		for i := 0; i < 12; i++ {
			scalars = append(scalars, c.Order.Rand(d.Uint64))
		}
		h := sha256.New()
		word := func(w uint64) { h.Write(binary.BigEndian.AppendUint64(nil, w)) }
		for _, k := range scalars {
			x := c.RandomPoint(d.Uint64).X
			lam := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64())
			mu := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64())
			rpc := rng.NewDRBG(d.Uint64()).Uint64
			for _, opt := range []LadderOptions{
				{},
				{FixedLambda: lam, FixedMu: mu},
				{Rand: rpc},
			} {
				s := c.ladderX(k, x, opt)
				for _, e := range []gf2m.Element{s.X0, s.Z0, s.X1, s.Z1} {
					for _, w := range e {
						word(w)
					}
				}
			}
			word(rpc())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: ladder state digest %s, want %s", c.Name, got, tc.want)
		}
	}
}
