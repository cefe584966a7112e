package sca

import (
	"fmt"
	"reflect"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/rng"
)

// TestMirrorStepWriteLayout pins the layout CPA indexes its
// hypothesis columns by: one step reports mirrorWrites writes, at the
// consecutive offsets from firstWriteOffset, under either guess.
func TestMirrorStepWriteLayout(t *testing.T) {
	curve := ec.K163()
	p := curve.RandomPoint(rng.NewDRBG(30).Uint64)
	for _, bit := range []uint{0, 1} {
		m := newMirror(p.X, gf2m.Element{}, gf2m.Element{}, false)
		var offsets []int
		m.step(bit, p.X, curve.B, func(w writePred) { offsets = append(offsets, w.offset) })
		if len(offsets) != mirrorWrites {
			t.Fatalf("bit %d: step reports %d writes, want %d", bit, len(offsets), mirrorWrites)
		}
		for w, off := range offsets {
			if off != firstWriteOffset+w {
				t.Fatalf("bit %d: write %d at offset %d, want %d", bit, w, off, firstWriteOffset+w)
			}
		}
	}
}

// TestCPAIdenticalAcrossWorkerCounts varies only the analysis: one
// acquired campaign is attacked at every worker count, so any
// difference comes from how CPA splits its traces and correlations.
// The 3-trace case has fewer traces than most pools have workers.
func TestCPAIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *Target
		n      int
		last   int
		opt    CPAOptions
	}{
		{"rpc-secret", func(t *testing.T) *Target { return newDPATarget(t, true, 311) },
			40, 157, CPAOptions{Bits: 4}},
		{"rpc-known-masks", func(t *testing.T) *Target { return newDPATarget(t, true, 311) },
			40, 157, CPAOptions{Bits: 4, KnownMasks: true}},
		{"three-traces", func(t *testing.T) *Target { return newDPATarget(t, false, 312) },
			3, 157, CPAOptions{Bits: 4}},
		{"centered-product", func(t *testing.T) *Target { return newMaskedTarget(t, 313, true) },
			40, 158, CPAOptions{Bits: 3, Preprocess: PreprocessCenteredProduct}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := tc.target(t)
			camp, err := tgt.AcquireCampaign(tc.n, 160, tc.last, rng.NewDRBG(32).Uint64)
			if err != nil {
				t.Fatal(err)
			}
			var want *CPAResult
			for _, workers := range []int{1, 0, 2, 7, 64} {
				tgt.Workers = workers
				got, err := CPA(camp, tc.opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: %+v, workers=1: %+v", workers, got, want)
				}
			}
		})
	}
}

// TestCPAAllocsIndependentOfTraceCount pins that the CPA's allocations
// do not grow with the campaign: mirrors and hypothesis columns are
// allocated once per call, never per trace or per guess.
func TestCPAAllocsIndependentOfTraceCount(t *testing.T) {
	tgt := newDPATarget(t, true, 314)
	tgt.Workers = 1
	camp, err := tgt.AcquireCampaign(400, 160, 157, rng.NewDRBG(33).Uint64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		sub := camp.Prefix(n)
		return testing.AllocsPerRun(3, func() {
			if _, err := CPA(sub, CPAOptions{Bits: 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(400); small != large {
		t.Fatalf("CPA allocates %.0f objects at 100 traces and %.0f at 400", small, large)
	}
}

// BenchmarkCPA prices the analysis alone on a 2 000-trace campaign
// against the RPC target over the six attacked bits, serially and on
// the default pool (GOMAXPROCS workers).
func BenchmarkCPA(b *testing.B) {
	const bits = 6
	tgt := newDPATarget(b, true, 315)
	first := 162 - len(DefaultKnownPrefix())
	camp, err := tgt.AcquireCampaign(2000, first, first-bits+1, rng.NewDRBG(34).Uint64)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tgt.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CPA(camp, CPAOptions{Bits: bits}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
