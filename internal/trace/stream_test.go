package trace

import (
	"math"
	"testing"
)

// xorshift64 is a tiny deterministic generator for synthetic trace
// sets — no dependency on internal/rng from here.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

func (x *xorshift64) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// randomSet builds an n×m trace set of uniform [0, 1) samples.
func randomSet(x *xorshift64, n, m int) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		tr := Trace{Samples: make([]float64, m)}
		for j := range tr.Samples {
			tr.Samples[j] = x.float()
		}
		s.Add(tr)
	}
	return s
}

// constantSet builds an n×m set where every sample equals c.
func constantSet(n, m int, c float64) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		tr := Trace{Samples: make([]float64, m)}
		for j := range tr.Samples {
			tr.Samples[j] = c
		}
		s.Add(tr)
	}
	return s
}

const streamTol = 1e-12

func closeSlices(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > streamTol {
			t.Fatalf("%s[%d]: streaming %.17g vs batch %.17g (diff %g)",
				name, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// shapes covers the edge cases the satellite task names: n=1, small,
// and moderately sized sets over several window widths.
var shapes = []struct{ n, m int }{
	{1, 1}, {1, 7}, {2, 5}, {3, 1}, {17, 33}, {64, 9},
}

func TestOnlineStatsMatchesBatch(t *testing.T) {
	x := xorshift64(0x1234)
	for _, sh := range shapes {
		s := randomSet(&x, sh.n, sh.m)
		o := NewOnlineStats()
		for _, tr := range s.Traces {
			if err := o.Add(tr.Samples); err != nil {
				t.Fatal(err)
			}
		}
		wantMean, err := s.MeanTrace()
		if err != nil {
			t.Fatal(err)
		}
		_, wantVar, err := s.meanVar()
		if err != nil {
			t.Fatal(err)
		}
		gotMean, err := o.Mean()
		if err != nil {
			t.Fatal(err)
		}
		gotVar, err := o.Variance()
		if err != nil {
			t.Fatal(err)
		}
		closeSlices(t, "mean", gotMean, wantMean)
		closeSlices(t, "variance", gotVar, wantVar)
		if o.N() != sh.n || o.SampleLen() != sh.m {
			t.Fatalf("N/SampleLen = %d/%d, want %d/%d", o.N(), o.SampleLen(), sh.n, sh.m)
		}
	}
}

func TestOnlineStatsConstantSamples(t *testing.T) {
	s := constantSet(5, 4, 3.25)
	o := NewOnlineStats()
	for _, tr := range s.Traces {
		if err := o.Add(tr.Samples); err != nil {
			t.Fatal(err)
		}
	}
	v, err := o.Variance()
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Mean()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if v[i] != 0 {
			t.Fatalf("constant set variance[%d] = %g, want 0", i, v[i])
		}
		if m[i] != 3.25 {
			t.Fatalf("constant set mean[%d] = %g, want 3.25", i, m[i])
		}
	}
}

func TestOnlineWelchMatchesBatch(t *testing.T) {
	x := xorshift64(0xBEEF)
	for _, sh := range shapes {
		a := randomSet(&x, sh.n, sh.m)
		b := randomSet(&x, sh.n+1, sh.m)
		w := NewOnlineWelch()
		for _, tr := range a.Traces {
			if err := w.AddA(tr.Samples); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range b.Traces {
			if err := w.AddB(tr.Samples); err != nil {
				t.Fatal(err)
			}
		}
		want, err := WelchT(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.T()
		if err != nil {
			t.Fatal(err)
		}
		closeSlices(t, "welch-t", got, want)
	}
}

func TestOnlineWelchConstantPopulations(t *testing.T) {
	// Identical constant populations: zero denominator => t = 0, same
	// as the batch convention.
	a := constantSet(4, 3, 1.5)
	b := constantSet(6, 3, 1.5)
	w := NewOnlineWelch()
	for _, tr := range a.Traces {
		_ = w.AddA(tr.Samples)
	}
	for _, tr := range b.Traces {
		_ = w.AddB(tr.Samples)
	}
	want, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.T()
	if err != nil {
		t.Fatal(err)
	}
	closeSlices(t, "welch-const", got, want)
	if mx, idx := w.MaxT(); mx != 0 || idx != -1 {
		t.Fatalf("MaxT on all-zero t-curve = (%g, %d), want (0, -1)", mx, idx)
	}
}

func TestSetPrefixViewAliasingAndSafety(t *testing.T) {
	x := xorshift64(7)
	s := randomSet(&x, 4, 3)
	p := s.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("Prefix(2).Len() = %d", p.Len())
	}
	// The view aliases the parent's samples (documented contract).
	p.Traces[0].Samples[0] = 42
	if s.Traces[0].Samples[0] != 42 {
		t.Fatal("Prefix must alias the parent's sample storage")
	}
	// But Add on the view must NOT clobber the parent's trace 2 — the
	// capacity clamp forces reallocation.
	before := s.Traces[2].Samples[0]
	p.Add(Trace{Samples: []float64{-1, -1, -1}})
	if s.Traces[2].Samples[0] != before {
		t.Fatal("Add on a Prefix view clobbered the parent set")
	}
	// Bounds are clamped.
	if s.Prefix(99).Len() != 4 || s.Prefix(-1).Len() != 0 {
		t.Fatal("Prefix bounds not clamped")
	}
	// Prefix statistics match a manually rebuilt subset.
	sub := &Set{Traces: append([]Trace(nil), s.Traces[:3]...)}
	wm, err := sub.MeanTrace()
	if err != nil {
		t.Fatal(err)
	}
	gm, err := s.Prefix(3).MeanTrace()
	if err != nil {
		t.Fatal(err)
	}
	closeSlices(t, "prefix-mean", gm, wm)
}
