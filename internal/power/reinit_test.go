package power

import (
	"testing"

	"medsec/internal/coproc"
)

// TestModelReinitMatchesNew pins the allocation-free re-init path: a
// model recycled with Reinit must produce the exact same per-cycle
// energy stream as a freshly constructed one, including the re-seeded
// noise draws.
func TestModelReinitMatchesNew(t *testing.T) {
	evs := []coproc.CycleEvent{
		{Op: coproc.OpMul, RegsClocked: 1, AccHD: 40, Acc01: 22, BusHW: 31, DigitHW: 3},
		{Op: coproc.OpCSwap, RegsClocked: 0, CtrlSel: 1, SwapHD: 80},
		{Op: coproc.OpAdd, RegsClocked: 1, WriteHD: 55, Write01: 29, BusHW: 90},
	}
	cfgA := ProtectedChip(111)
	cfgB := UnprotectedChip(222)
	recycled := NewModel(cfgA)
	// Disturb the recycled model's noise stream so Reinit has real work.
	for i := range evs {
		_ = recycled.CycleEnergy(&evs[i])
	}
	recycled.Reinit(cfgB)
	fresh := NewModel(cfgB)
	if recycled.Config() != fresh.Config() {
		t.Fatalf("Reinit config %+v != NewModel config %+v", recycled.Config(), fresh.Config())
	}
	for round := 0; round < 50; round++ {
		for i := range evs {
			got := recycled.CycleEnergy(&evs[i])
			want := fresh.CycleEnergy(&evs[i])
			if got != want {
				t.Fatalf("round %d ev %d: recycled %.18g != fresh %.18g", round, i, got, want)
			}
		}
	}
	// Zero fields in the config get the same defaults as NewModel.
	recycled.Reinit(Config{})
	fresh = NewModel(Config{})
	if recycled.Config() != fresh.Config() {
		t.Fatalf("defaulting diverged: %+v vs %+v", recycled.Config(), fresh.Config())
	}
}
