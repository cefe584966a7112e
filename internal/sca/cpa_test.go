package sca

import (
	"fmt"
	"reflect"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// TestMirrorStepWriteLayout pins the layout CPA indexes its
// hypothesis columns by: stepBoth's prediction w under guess g is the
// activity the simulator reports at write w's writeback cycle
// (iterWriteCycles) when the key bit is g — the 0->1 count, and the
// Hamming distance in the second-order model — and the mirror it
// leaves under guess g is the one step leaves.
func TestMirrorStepWriteLayout(t *testing.T) {
	curve := ec.K163()
	for _, rpc := range []bool{false, true} {
		tgt := newDPATarget(t, rpc, 42)
		spans := tgt.Program().Spans(tgt.Timing)
		p := curve.RandomPoint(rng.NewDRBG(30).Uint64)
		var lambda, mu gf2m.Element
		if rpc {
			lambda, mu = tgt.Masks(5)
		}
		// writes runs the device on key and returns each cycle's
		// reported write activity.
		writes := func(key modn.Scalar) map[int][2]int {
			out := map[int][2]int{}
			cpu := coproc.NewCPU(tgt.Timing)
			cpu.Rand = rng.NewDRBG(tgt.traceSeed(5)).Uint64
			cpu.SetOperandConstants(p.X, curve.B, p.Y)
			cpu.Probe = func(ev *coproc.CycleEvent) { out[ev.Cycle] = [2]int{ev.Write01, ev.WriteHD} }
			if _, err := cpu.Run(tgt.Program(), key); err != nil {
				t.Fatal(err)
			}
			return out
		}
		m := newMirror(p.X, lambda, mu, rpc)
		for _, bit := range DefaultKnownPrefix() {
			m.step(bit, p.X, curve.B)
		}
		for iter := 160; iter >= 157; iter-- {
			var next [2]mirror
			var w01, hd [2][mirrorWrites]float64
			m.stepBoth(p.X, curve.B, false, &next[0], &next[1], &w01)
			m.stepBoth(p.X, curve.B, true, &next[0], &next[1], &hd)
			for g := uint(0); g <= 1; g++ {
				key := tgt.Key
				key[iter>>6] &^= 1 << (iter & 63)
				key[iter>>6] |= uint64(g) << (iter & 63)
				ev := writes(key)
				for w, cyc := range iterWriteCycles(spans, iter) {
					if cyc < 0 {
						t.Fatalf("iteration %d: write %d has no writeback cycle", iter, w)
					}
					if got := ev[cyc]; float64(got[0]) != w01[g][w] || float64(got[1]) != hd[g][w] {
						t.Fatalf("rpc=%v iteration %d guess %d write %d: predicted 0->1 %v and HD %v, the device wrote %v",
							rpc, iter, g, w, w01[g][w], hd[g][w], got)
					}
				}
				want := m
				want.step(g, p.X, curve.B)
				if next[g] != want {
					t.Fatalf("rpc=%v iteration %d guess %d: stepBoth and step leave different mirrors", rpc, iter, g)
				}
			}
			m = next[tgt.Key.Bit(iter)]
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

// BenchmarkCPALadder prices the analysis the way a traces-to-disclosure
// search runs it: one 4 000-trace campaign against the RPC target,
// attacked on every prefix of the benchmark's size ladder up to 4 000
// traces. Each iteration starts from an empty memo, as a new campaign
// does, so it pays for the whole ladder.
func BenchmarkCPALadder(b *testing.B) {
	const bits = 6
	sizes := []int{25, 50, 100, 150, 200, 300, 450, 700, 1000, 2000, 4000}
	tgt := newDPATarget(b, true, 315)
	first := 162 - len(DefaultKnownPrefix())
	camp, err := tgt.AcquireCampaign(sizes[len(sizes)-1], first, first-bits+1, rng.NewDRBG(34).Uint64)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tgt.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				camp.memo = &cpaMemo{}
				for _, n := range sizes {
					if _, err := CPA(camp.Prefix(n), CPAOptions{Bits: bits}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
