package power

import (
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/rng"
)

// fusedTestConfigs covers every logic style and every branch of the
// datapath/control model, with and without noise.
func fusedTestConfigs() []Config {
	noNoise := ProtectedChip(9)
	noNoise.NoiseSigma = 0
	wddl := ProtectedChip(9)
	wddl.Style = WDDL
	sabl := UnprotectedChip(9)
	sabl.Style = SABL
	gated := UnprotectedChip(9)
	gated.DataDepClockGating = true
	hv := ProtectedChip(9)
	hv.Vdd = 1.2
	return []Config{ProtectedChip(9), UnprotectedChip(9), noNoise, wddl, sabl, gated, hv}
}

// fusedTestEvents builds a pseudo-random event stream hitting every
// opcode (CSwap with both select values, MALU cycles with accumulator
// activity, writebacks, loads).
func fusedTestEvents(n int) []coproc.CycleEvent {
	src := rng.NewXorshift(77)
	ops := []coproc.Op{coproc.OpNop, coproc.OpAdd, coproc.OpMove, coproc.OpLoadConst,
		coproc.OpLoadRnd, coproc.OpCSwap, coproc.OpMul, coproc.OpSqr}
	evs := make([]coproc.CycleEvent, n)
	for i := range evs {
		r := src.Uint64()
		evs[i] = coproc.CycleEvent{
			Cycle:       i,
			Op:          ops[r%uint64(len(ops))],
			CtrlSel:     uint(r >> 8 & 1),
			WriteHD:     int(r >> 16 & 0x7f),
			Write01:     int(r >> 24 & 0x3f),
			SwapHD:      int(r >> 32 & 0xff),
			BusHW:       int(r >> 40 & 0xff),
			AccHD:       int(r >> 48 & 0x3f),
			Acc01:       int(r >> 52 & 0x3f),
			DigitHW:     int(r >> 58 & 0xf),
			RegsClocked: int(r >> 4 & 3),
		}
	}
	return evs
}

// TestCycleBaseEnergyMatchesComponents pins the fused scalar path: for
// every configuration and a varied event stream, CycleBaseEnergy plus
// the separately drawn noise term must be bit-identical to
// CycleComponents' Total — the association order of the sum included.
func TestCycleBaseEnergyMatchesComponents(t *testing.T) {
	evs := fusedTestEvents(2000)
	for ci, cfg := range fusedTestConfigs() {
		ref := NewModel(cfg)
		fused := NewModel(cfg)
		noise := make([]float64, len(evs))
		fused.FillNoise(noise)
		for i := range evs {
			want := ref.CycleComponents(&evs[i])
			base := fused.CycleBaseEnergy(&evs[i])
			if got := base + noise[i]; got != want.Total() {
				t.Fatalf("cfg %d ev %d: fused %.18g != serial %.18g", ci, i, got, want.Total())
			}
		}
	}
}

// TestFillNoiseMatchesSerialDraws pins FillNoise against the exact
// noise terms sequential CycleComponents calls produce, across refill
// phases (odd block sizes force the Box–Muller spare cache through
// both states).
func TestFillNoiseMatchesSerialDraws(t *testing.T) {
	ev := coproc.CycleEvent{Op: coproc.OpNop}
	for _, blocks := range [][]int{{1}, {2}, {3, 5}, {7, 1, 256}, {64, 63, 1}} {
		ref := NewModel(ProtectedChip(31))
		fused := NewModel(ProtectedChip(31))
		for _, n := range blocks {
			buf := make([]float64, n)
			fused.FillNoise(buf)
			for i, got := range buf {
				want := ref.CycleComponents(&ev).Noise
				if got != want {
					t.Fatalf("blocks %v draw %d: fill %.18g != serial %.18g", blocks, i, got, want)
				}
			}
		}
	}
	// With noise disabled, FillNoise zeroes without consuming draws.
	cfg := ProtectedChip(31)
	cfg.NoiseSigma = 0
	m := NewModel(cfg)
	buf := []float64{1, 2, 3}
	m.FillNoise(buf)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("disabled noise: buf[%d] = %g, want 0", i, v)
		}
	}
}

// TestCycleEnergyMatchesComponentsTotal pins the metering path:
// CycleEnergy (the noise-free sum plus one noise draw, what Meter
// accumulates) must be bit-identical to CycleComponents' Total (what
// BreakdownMeter splits), noise stream included, for every
// configuration.
func TestCycleEnergyMatchesComponentsTotal(t *testing.T) {
	evs := fusedTestEvents(2000)
	for ci, cfg := range fusedTestConfigs() {
		ref := NewModel(cfg)
		m := NewModel(cfg)
		for i := range evs {
			want := ref.CycleComponents(&evs[i]).Total()
			if got := m.CycleEnergy(&evs[i]); got != want {
				t.Fatalf("cfg %d ev %d: CycleEnergy %.18g != components total %.18g", ci, i, got, want)
			}
		}
	}
}
