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
		draw := NewModel(cfg)
		for i := range evs {
			want := ref.CycleComponents(&evs[i])
			base := fused.CycleBaseEnergy(&evs[i])
			if got := base + draw.CycleComponents(&evs[i]).Noise; got != want.Total() {
				t.Fatalf("cfg %d ev %d: fused %.18g != serial %.18g", ci, i, got, want.Total())
			}
		}
	}
}

// TestFillNoiseMatchesSerialDraws pins Samples, the noise pass that
// replaced FillNoise, against per-cycle CyclePower over a run that
// evaluates every cycle: for every configuration, at batch widths of 1,
// 3, 8 and 9 lanes (one lane in three without noise), along windows
// that start at odd and even cycles and cross the pass's 256-draw
// block, and along record lists with odd and even gaps, back-to-back
// cycles and a first cycle of 0, each kept sample must equal the
// reference's at its cycle, bit for bit.
func TestFillNoiseMatchesSerialDraws(t *testing.T) {
	evs := fusedTestEvents(1200)
	cfgs := fusedTestConfigs()
	want := make([][]float64, len(cfgs))
	for ci, cfg := range cfgs {
		ref := NewModel(cfg)
		for i := range evs {
			want[ci] = append(want[ci], ref.CyclePower(&evs[i]))
		}
	}
	window := func(start, n int) []int {
		cycles := make([]int, n)
		for k := range cycles {
			cycles[k] = start + k
		}
		return cycles
	}
	plans := []struct {
		start  int
		record []int
	}{
		{start: 0}, {start: 1}, {start: 77}, {start: 1053},
		{record: []int{0, 1, 5, 6, 7, 49, 50, 92, 138, 139}},
		{record: []int{3, 46, 88, 131, 132, 600, 601, 602, 1199}},
		{record: window(400, 300)},
	}
	for _, lanes := range []int{1, 3, 8, 9} {
		for pi, p := range plans {
			cycles := p.record
			if cycles == nil {
				cycles = window(p.start, min(len(evs)-p.start, 700))
			}
			models := make([]*Model, lanes)
			energies := make([][]float64, lanes)
			for l := range models {
				cfg := cfgs[l%len(cfgs)]
				if l%3 == 1 {
					cfg.NoiseSigma = 0
				}
				models[l] = NewModel(cfg)
				for _, c := range cycles {
					energies[l] = append(energies[l], models[l].CycleBaseEnergy(&evs[c]))
				}
			}
			Samples(models, energies, p.start, p.record)
			for l := range models {
				ci := l % len(cfgs)
				for k, c := range cycles {
					w := want[ci][c]
					if l%3 == 1 {
						w = NewModel(models[l].cfg).CyclePower(&evs[c])
					}
					if energies[l][k] != w {
						t.Fatalf("%d lanes, plan %d, lane %d, cycle %d: pass %.18g != serial %.18g",
							lanes, pi, l, c, energies[l][k], w)
					}
				}
			}
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
