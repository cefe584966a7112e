package sca

import (
	"testing"

	"medsec/internal/ec"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

// acquireJobs runs one lane batch on scratch s and returns its traces.
func acquireJobs(t *testing.T, tgt *Target, s *laneScratch, plan *acqPlan, jobs []acqJob) []trace.Trace {
	t.Helper()
	out := make([]trace.Trace, len(jobs))
	if err := tgt.acquireBatch(s, plan, jobs, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAcquireSteadyStateAllocs pins the campaign hot path's allocation
// budget: with worker-owned lane scratch (re-seeded DRBGs, re-inited
// power models, pooled collector buffers, pre-bound sinks), a
// steady-state width-1 batch must not allocate beyond the two small
// pool-header boxes Release pays when recycling the sample buffers.
func TestAcquireSteadyStateAllocs(t *testing.T) {
	tgt := newDPATarget(t, true, 9)
	p := tgt.Curve.RandomPoint(rng.NewDRBG(3).Uint64)
	start, end := tgt.Window(162, 159) // small early window: fast runs
	plan := tgt.planWindow(start, end)
	s := tgt.newLaneScratch(1)
	jobs := []acqJob{{key: tgt.Key, point: p}}
	out := make([]trace.Trace, 1)
	acquireRelease := func(idx uint64) {
		jobs[0].dev = idx
		if err := tgt.acquireBatch(s, plan, jobs, out); err != nil {
			t.Fatal(err)
		}
		if len(out[0].Samples) == 0 {
			t.Fatal("empty acquisition")
		}
		out[0].Release()
	}
	// Warm the pools and the scratch state.
	for i := uint64(0); i < 3; i++ {
		acquireRelease(i)
	}
	idx := uint64(100)
	allocs := testing.AllocsPerRun(20, func() {
		acquireRelease(idx)
		idx++
	})
	if allocs > 4 {
		t.Fatalf("steady-state acquisition allocates %.1f objects per trace, want <= 4", allocs)
	}
}

// TestAcquireScratchReuseBitIdentical pins that one lane scratch reused
// across many batches reproduces exactly what fresh width-1 state
// produces per trace — the equivalence both the allocation win and the
// lane-count independence rest on.
func TestAcquireScratchReuseBitIdentical(t *testing.T) {
	tgt := newDPATarget(t, true, 4)
	p := tgt.Curve.RandomPoint(rng.NewDRBG(8).Uint64)
	start, end := tgt.Window(162, 160)
	plan := tgt.planWindow(start, end)
	s := tgt.newLaneScratch(3)
	for first := uint64(0); first < 6; first += 3 {
		jobs := []acqJob{{key: tgt.Key, point: p, dev: first}, {key: tgt.Key, point: p, dev: first + 1}, {key: tgt.Key, point: p, dev: first + 2}}
		reused := acquireJobs(t, tgt, s, plan, jobs)
		for i, j := range jobs {
			j.point = ec.Point{X: p.X, Y: p.Y}
			fresh := acquireJobs(t, tgt, tgt.newLaneScratch(1), plan, []acqJob{j})[0]
			if len(reused[i].Samples) != len(fresh.Samples) || len(fresh.Samples) == 0 {
				t.Fatalf("idx %d: shape %d != %d", j.dev, len(reused[i].Samples), len(fresh.Samples))
			}
			for k := range fresh.Samples {
				if reused[i].Samples[k] != fresh.Samples[k] {
					t.Fatalf("idx %d sample %d: reused scratch %.18g != fresh %.18g",
						j.dev, k, reused[i].Samples[k], fresh.Samples[k])
				}
			}
			reused[i].Release()
			fresh.Release()
		}
	}
}
