package trace

import (
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/rng"
)

// TestLaneSinkMatchesReferenceProbe pins the lane sink's contract:
// over a real point multiplication and a recording window that leaves
// out-of-window cycles on both sides, the trace it records must be
// bit-identical to the per-cycle CycleEnergy reference's — noise
// stream included — for every logic style and for zero noise.
func TestLaneSinkMatchesReferenceProbe(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: true})
	tim := coproc.DefaultTiming()
	start, end := prog.IterationWindow(tim, 160, 158)

	cfgs := []power.Config{power.ProtectedChip(5), power.UnprotectedChip(5)}
	wddl := power.ProtectedChip(5)
	wddl.Style = power.WDDL
	quietCfg := power.ProtectedChip(5)
	quietCfg.NoiseSigma = 0
	cfgs = append(cfgs, wddl, quietCfg)

	k := curve.Order.RandNonZero(rng.NewDRBG(99).Uint64)
	run := func(cfg power.Config, attach func(cpu *coproc.CPU, col *Collector)) Trace {
		model := power.NewModel(cfg)
		col := NewCollector(model, start, end)
		cpu := coproc.NewCPU(tim)
		cpu.Rand = rng.NewDRBG(7).Uint64
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		attach(cpu, col)
		if _, err := cpu.Run(prog, k); err != nil {
			t.Fatal(err)
		}
		return col.Take()
	}
	for ci, cfg := range cfgs {
		want := run(cfg, func(cpu *coproc.CPU, col *Collector) { cpu.Probe = col.referenceProbe() })
		got := run(cfg, func(cpu *coproc.CPU, col *Collector) { cpu.Probe = col.LaneSink() })
		if len(got.Samples) != len(want.Samples) || len(want.Samples) != end-start {
			t.Fatalf("cfg %d: lane %d samples, serial %d, window %d", ci, len(got.Samples), len(want.Samples), end-start)
		}
		for i := range want.Samples {
			if got.Samples[i] != want.Samples[i] {
				t.Fatalf("cfg %d sample %d: lane %.18g != reference %.18g", ci, i, got.Samples[i], want.Samples[i])
			}
		}
		got.Release()
		want.Release()
	}
}

// TestBatchCollectorBitIdentical pins the collectors of one lane batch
// in the campaign acquisition shape — quiet prologue up to the window,
// MaxCycles at its end, each lane's noise stream advanced past the
// skipped cycles with SkipCycles — against per-trace reference probes
// that evaluate every cycle of a whole run: same samples, with and
// without noise.
func TestBatchCollectorBitIdentical(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: true})
	tim := coproc.DefaultTiming()
	start, end := prog.IterationWindow(tim, 160, 158)
	cfgs := []power.Config{power.ProtectedChip(5), power.UnprotectedChip(6), power.ProtectedChip(7)}
	cfgs[2].NoiseSigma = 0
	keys := make([]modn.Scalar, len(cfgs))
	cols := make([]*Collector, len(cfgs))
	runs := make([]coproc.LaneRun, len(cfgs))
	for l, cfg := range cfgs {
		keys[l] = curve.Order.RandNonZero(rng.NewDRBG(uint64(90 + l)).Uint64)
		model := power.NewModel(cfg)
		cols[l] = NewCollector(model, start, end)
		runs[l] = coproc.LaneRun{Key: keys[l], Rand: rng.NewDRBG(uint64(7 + l)).Uint64, Sink: cols[l].LaneSink(),
			Consts: coproc.OperandConstants(curve.Gx, curve.B, curve.Gy)}
		model.SkipCycles(start)
	}
	lc := coproc.NewLaneCPU(tim)
	lc.QuietCycles, lc.MaxCycles = start, end
	if _, err := lc.Run(prog, runs); err != coproc.ErrStopped {
		t.Fatalf("windowed batch: got %v, want ErrStopped", err)
	}
	for l, cfg := range cfgs {
		ref := NewCollector(power.NewModel(cfg), start, end)
		cpu := coproc.NewCPU(tim)
		cpu.Rand = rng.NewDRBG(uint64(7 + l)).Uint64
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		cpu.Probe = ref.referenceProbe()
		if _, err := cpu.Run(prog, keys[l]); err != nil {
			t.Fatal(err)
		}
		want, got := ref.Take(), cols[l].Take()
		if len(got.Samples) != end-start || len(want.Samples) != end-start {
			t.Fatalf("lane %d: %d samples, reference %d, window %d", l, len(got.Samples), len(want.Samples), end-start)
		}
		for i := range want.Samples {
			if got.Samples[i] != want.Samples[i] {
				t.Fatalf("lane %d sample %d: batch %.18g != reference %.18g",
					l, i, got.Samples[i], want.Samples[i])
			}
		}
		got.Release()
	}
}
