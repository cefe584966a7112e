package ec

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
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
