package rng

import (
	"math"
	"testing"
)

func TestDRBGDeterministicAndSeedSeparated(t *testing.T) {
	a1 := NewDRBG(42)
	a2 := NewDRBG(42)
	b := NewDRBG(43)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		v1, v2, v3 := a1.Uint64(), a2.Uint64(), b.Uint64()
		if v1 != v2 {
			same = false
		}
		if v1 != v3 {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDRBGReadAndUint64Uniformity(t *testing.T) {
	d := NewDRBG(7)
	buf := make([]byte, 100000)
	if n, err := d.Read(buf); n != len(buf) || err != nil {
		t.Fatalf("Read returned (%d, %v)", n, err)
	}
	var counts [256]int
	for _, b := range buf {
		counts[b]++
	}
	// Chi-square against uniform: expected 390.6 per bucket.
	var chi2 float64
	exp := float64(len(buf)) / 256
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// 255 dof: mean 255, sd ~22.6. Anything under 400 is comfortably sane.
	if chi2 > 400 {
		t.Fatalf("DRBG output fails chi-square: %.1f", chi2)
	}
}

func TestDRBGIntn(t *testing.T) {
	d := NewDRBG(9)
	var counts [10]int
	for i := 0; i < 10000; i++ {
		v := d.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("Intn bucket %d count %d implausible", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	d.Intn(0)
}

func TestXorshiftBasicStatistics(t *testing.T) {
	x := NewXorshift(123)
	var ones int
	const n = 10000
	for i := 0; i < n; i++ {
		v := x.Uint64()
		for b := 0; b < 64; b++ {
			ones += int(v >> b & 1)
		}
	}
	total := n * 64
	frac := float64(ones) / float64(total)
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("bit bias: %.4f", frac)
	}
	// Zero seed must not produce the all-zero fixed point.
	z := NewXorshift(0)
	if z.Uint64() == 0 && z.Uint64() == 0 && z.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestXorshiftFloat64Range(t *testing.T) {
	x := NewXorshift(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean %.4f implausible", mean)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewGaussian(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Sample()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Gaussian mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Gaussian variance %.4f, want ~1", variance)
	}
}

func TestGaussianTails(t *testing.T) {
	g := NewGaussian(12)
	const n = 100000
	beyond2 := 0
	for i := 0; i < n; i++ {
		if math.Abs(g.Sample()) > 2 {
			beyond2++
		}
	}
	// P(|Z| > 2) = 4.55%; accept 3.5%..5.5%.
	frac := float64(beyond2) / n
	if frac < 0.035 || frac > 0.055 {
		t.Fatalf("tail mass %.4f implausible for N(0,1)", frac)
	}
}

func BenchmarkDRBGUint64(b *testing.B) {
	d := NewDRBG(1)
	for i := 0; i < b.N; i++ {
		d.Uint64()
	}
}

func BenchmarkXorshiftUint64(b *testing.B) {
	x := NewXorshift(1)
	for i := 0; i < b.N; i++ {
		x.Uint64()
	}
}

func BenchmarkGaussianSample(b *testing.B) {
	g := NewGaussian(1)
	for i := 0; i < b.N; i++ {
		g.Sample()
	}
}

// TestGaussianFillMatchesSample pins the batch Fill path against the
// per-call Sample loop: for every block size (odd and even, so both
// spare-cache phases are crossed mid-block) the emitted values and the
// final generator state must be bit-identical.
func TestGaussianFillMatchesSample(t *testing.T) {
	for _, sizes := range [][]int{{1}, {2}, {3}, {7, 1, 4}, {5, 8, 1, 1, 2}, {64, 63}} {
		a, b := NewGaussian(42), NewGaussian(42)
		for _, n := range sizes {
			got := make([]float64, n)
			a.Fill(got)
			for i := 0; i < n; i++ {
				if want := b.Sample(); got[i] != want {
					t.Fatalf("sizes %v: Fill[%d] = %v, Sample = %v", sizes, i, got[i], want)
				}
			}
		}
		// The generators must leave Fill and Sample in the same phase.
		if a.Sample() != b.Sample() {
			t.Fatalf("sizes %v: generator state diverged after Fill", sizes)
		}
	}
}

// TestGaussianSkipIntegerFastPath re-pins Skip against real Sample
// calls now that the rejection test runs on raw integer draws.
func TestGaussianSkipIntegerFastPath(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 100} {
		a, b := NewGaussian(7), NewGaussian(7)
		a.Skip(n)
		for i := 0; i < n; i++ {
			b.Sample()
		}
		for i := 0; i < 4; i++ {
			if a.Sample() != b.Sample() {
				t.Fatalf("Skip(%d) diverged from %d Sample calls", n, n)
			}
		}
	}
}

func BenchmarkGaussianFill256(b *testing.B) {
	g := NewGaussian(1)
	buf := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Fill(buf)
	}
}
