package trace

import (
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/power"
)

// backingPtr identifies a slice's backing array (nil for capacity 0).
func backingPtr(s []float64) *float64 {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

// TestReleaseDoubleReleaseIsNoOp is the regression test for the
// double-free shape: a Trace travels by value, so a consumer can hold
// a stale copy of a header whose buffers were already released. The
// second Release (through the copy) must be a no-op — before the
// guard, it inserted the same backing array into the pool twice, and
// two later acquisitions recorded into shared memory.
func TestReleaseDoubleReleaseIsNoOp(t *testing.T) {
	s := samplePool.Get(batchInitCap)
	s = s[:32]
	for i := range s {
		s[i] = float64(i)
	}
	tr := Trace{Samples: s}
	cp := tr // stale copy, as a by-value consumer would hold

	tr.Release()
	if tr.Samples != nil {
		t.Fatal("Release did not clear the header")
	}
	cp.Release() // double release through the copy — must not double-Put

	// If the guard failed, the pool now holds the same array twice and
	// the next two Gets alias each other.
	a := samplePool.Get(batchInitCap)
	b := samplePool.Get(batchInitCap)
	if pa, pb := backingPtr(a), backingPtr(b); pa != nil && pa == pb {
		t.Fatal("double release corrupted the pool: two acquisitions share a backing array")
	}
	samplePool.Put(a)
	samplePool.Put(b)
}

// TestReleaseSteadyStateReuseNotMisdetected pins the other side of the
// guard: release → re-acquire → release again is the NORMAL
// steady-state flow and must not be mistaken for a double free. It
// asserts the guard's decision, not the pool's: sync.Pool may drop any
// Put (the race detector drops a quarter of them on purpose), so
// whether a round gets the released array back is up to the pool.
// Whenever Begin does re-acquire the guarded array, the lastReleased
// sentinel must no longer point at it, so the next Release of that
// array passes the double-release check and reaches the pool.
func TestReleaseSteadyStateReuseNotMisdetected(t *testing.T) {
	cfg := power.ProtectedChip(1)
	cfg.NoiseSigma = 0
	model := power.NewModel(cfg)
	col := NewCollector(model, 0, 0)
	sink := col.LaneSink()
	evs := make([]coproc.CycleEvent, 16)
	for i := range evs {
		evs[i].Cycle = i
	}
	park := col.Take()
	park.Release() // park the construction-time buffer in the pool

	var last *float64
	reacquired := 0
	for round := 0; round < 32; round++ {
		col.Begin()
		for i := range evs {
			sink(&evs[i])
		}
		tr := col.Take()
		p := backingPtr(tr.Samples)
		if p == nil {
			t.Fatalf("round %d: acquisition without backing storage", round)
		}
		if p == last {
			reacquired++
		}
		if lastReleased.Load() == p {
			t.Fatalf("round %d: Begin handed out the last released buffer without clearing the sentinel — its next Release would be misdetected as a double free", round)
		}
		tr.Release()
		if lastReleased.Load() != p {
			t.Fatalf("round %d: Release did not record its buffer in the sentinel", round)
		}
		last = p
	}
	if reacquired == 0 {
		t.Fatal("the pool never handed a released buffer back: the re-acquire path was not exercised")
	}
}

// TestReleaseRecyclesBuffers pins the pooling contract: after a
// Release, a Begin-acquired trace reuses capacity instead of
// allocating, and the released header is cleared.
func TestReleaseRecyclesBuffers(t *testing.T) {
	curve := ec.K163()
	col := NewCollector(power.NewModel(power.ProtectedChip(77)), 150, 900)
	cpu := coproc.NewCPU(coproc.DefaultTiming())
	cpu.Probe = col.LaneSink()
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	if _, err := cpu.Run(coproc.BuildLadderProgram(coproc.ProgramOptions{XOnly: true}), modn.FromUint64(0xf00d)); err != nil {
		t.Fatal(err)
	}
	tr := col.Take()
	if len(tr.Samples) == 0 {
		t.Fatal("empty acquisition")
	}
	tr.Release()
	if tr.Samples != nil {
		t.Fatal("Release did not clear the trace header")
	}
	// A full Get/fill/Release cycle in steady state should cost at most
	// the small pool-header box sync.Pool.Put needs — no sample storage
	// allocation.
	model := power.NewModel(power.ProtectedChip(1))
	col = NewCollector(model, 0, 0)
	sink := col.LaneSink()
	evs := make([]coproc.CycleEvent, 64)
	for i := range evs {
		evs[i].Cycle = i
	}
	park := col.Take()
	park.Release() // park the construction-time buffer
	allocs := testing.AllocsPerRun(50, func() {
		col.Begin()
		for i := range evs {
			sink(&evs[i])
		}
		tr := col.Take()
		tr.Release()
	})
	if allocs > 4 {
		t.Fatalf("steady-state collect/release allocates %.1f objects per trace, want <= 4", allocs)
	}
}
