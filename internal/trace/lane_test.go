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
// MaxCycles at its end, one TakeBatch noise pass over the batch —
// against per-trace reference probes that evaluate every cycle of a
// whole run: same samples, with and without noise.
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
	}
	lc := coproc.NewLaneCPU(tim)
	lc.QuietCycles, lc.MaxCycles = start, end
	if _, err := lc.Run(prog, runs); err != coproc.ErrStopped {
		t.Fatalf("windowed batch: got %v, want ErrStopped", err)
	}
	batch := make([]Trace, len(cols))
	TakeBatch(cols, batch)
	for l, cfg := range cfgs {
		ref := NewCollector(power.NewModel(cfg), start, end)
		cpu := coproc.NewCPU(tim)
		cpu.Rand = rng.NewDRBG(uint64(7 + l)).Uint64
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		cpu.Probe = ref.referenceProbe()
		if _, err := cpu.Run(prog, keys[l]); err != nil {
			t.Fatal(err)
		}
		want, got := ref.Take(), batch[l]
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

// TestCollectorRecordedMatchesReferenceProbe pins the collector's
// record mode: at a list of cycles — the writebacks a CPA reads,
// back-to-back ADD and MOVE cycles, and in one iteration digit cycles
// between them —
// the samples it keeps equal the per-cycle CycleEnergy reference's at
// those cycles, noise stream included, for every logic style and for
// zero noise. It records from a LaneCPU evented only at those cycles
// (the campaign shape) and from a fully evented CPU, whose other
// cycles it ignores.
func TestCollectorRecordedMatchesReferenceProbe(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: true})
	tim := coproc.DefaultTiming()
	var record []int
	for _, sp := range prog.Spans(tim) {
		if sp.Iteration > 160 || sp.Iteration < 158 {
			continue
		}
		switch sp.Op {
		case coproc.OpMul, coproc.OpSqr:
			if sp.Iteration == 158 {
				record = append(record, sp.Start+5)
			}
			record = append(record, sp.End-1)
		case coproc.OpAdd, coproc.OpMove:
			record = append(record, sp.End-1)
		}
	}
	_, end := prog.IterationWindow(tim, 160, 158)

	cfgs := []power.Config{power.ProtectedChip(5), power.UnprotectedChip(5)}
	wddl := power.ProtectedChip(5)
	wddl.Style = power.WDDL
	quietCfg := power.ProtectedChip(5)
	quietCfg.NoiseSigma = 0
	cfgs = append(cfgs, wddl, quietCfg)

	k := curve.Order.RandNonZero(rng.NewDRBG(99).Uint64)
	consts := coproc.OperandConstants(curve.Gx, curve.B, curve.Gy)
	for ci, cfg := range cfgs {
		ref := NewCollector(power.NewModel(cfg), 0, 0)
		cpu := coproc.NewCPU(tim)
		cpu.Rand = rng.NewDRBG(7).Uint64
		cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		cpu.Probe = ref.referenceProbe()
		if _, err := cpu.Run(prog, k); err != nil {
			t.Fatal(err)
		}
		full := ref.Take()

		recorded := func(evented bool) Trace {
			model := power.NewModel(cfg)
			col := NewCollector(model, 0, 0)
			col.Record = record
			sink := col.LaneSink()
			if evented {
				cpu := coproc.NewCPU(tim)
				cpu.Rand = rng.NewDRBG(7).Uint64
				cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
				cpu.Probe = sink
				if _, err := cpu.Run(prog, k); err != nil {
					t.Fatal(err)
				}
			} else {
				lc := coproc.NewLaneCPU(tim)
				lc.MaxCycles, lc.Record = end, record
				runs := []coproc.LaneRun{{Key: k, Rand: rng.NewDRBG(7).Uint64, Sink: sink, Consts: consts}}
				if _, err := lc.Run(prog, runs); err != coproc.ErrStopped {
					t.Fatalf("recorded run: got %v, want ErrStopped", err)
				}
			}
			return col.Take()
		}
		for _, evented := range []bool{false, true} {
			got := recorded(evented)
			if len(got.Samples) != len(record) || got.StartCycle != record[0] {
				t.Fatalf("cfg %d evented=%v: %d samples from cycle %d, want %d from %d",
					ci, evented, len(got.Samples), got.StartCycle, len(record), record[0])
			}
			for i, cyc := range record {
				if got.Samples[i] != full.Samples[cyc] {
					t.Fatalf("cfg %d evented=%v cycle %d: recorded %.18g != reference %.18g",
						ci, evented, cyc, got.Samples[i], full.Samples[cyc])
				}
			}
			got.Release()
		}
	}
}

// TestTakeBatchMatchesTake pins the lockstep noise pass to the pass
// each collector runs alone: one LaneCPU run of 1, 3, 8 and 9 lanes
// (a partial chunk, a full one and a second chunk) feeds two collectors
// per lane over fresh models, and TakeBatch over one set must equal
// Take on each of the other, bit for bit, in window mode and in record
// mode, with every third lane's NoiseSigma 0.
func TestTakeBatchMatchesTake(t *testing.T) {
	curve := ec.K163()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: true})
	tim := coproc.DefaultTiming()
	start, end := prog.IterationWindow(tim, 162, 161)
	var record []int
	for _, sp := range prog.Spans(tim) {
		if sp.Iteration <= 162 && sp.Iteration >= 161 && sp.Op != coproc.OpCSwap {
			record = append(record, sp.End-1)
		}
	}
	consts := coproc.OperandConstants(curve.Gx, curve.B, curve.Gy)
	for _, lanes := range []int{1, 3, 8, 9} {
		for _, rec := range [][]int{nil, record} {
			batch := make([]*Collector, lanes)
			alone := make([]*Collector, lanes)
			runs := make([]coproc.LaneRun, lanes)
			for l := range runs {
				cfg := power.ProtectedChip(uint64(40 + l))
				if l%3 == 1 {
					cfg.NoiseSigma = 0
				}
				batch[l] = NewCollector(power.NewModel(cfg), start, end)
				alone[l] = NewCollector(power.NewModel(cfg), start, end)
				batch[l].Record, alone[l].Record = rec, rec
				a, b := batch[l].LaneSink(), alone[l].LaneSink()
				runs[l] = coproc.LaneRun{Key: curve.Order.RandNonZero(rng.NewDRBG(uint64(60 + l)).Uint64),
					Rand: rng.NewDRBG(uint64(70 + l)).Uint64, Consts: consts,
					Sink: func(ev *coproc.CycleEvent) { a(ev); b(ev) }}
			}
			lc := coproc.NewLaneCPU(tim)
			lc.QuietCycles, lc.MaxCycles, lc.Record = start, end, rec
			if rec != nil {
				lc.QuietCycles = 0
			}
			if _, err := lc.Run(prog, runs); err != coproc.ErrStopped {
				t.Fatalf("%d lanes: got %v, want ErrStopped", lanes, err)
			}
			got := make([]Trace, lanes)
			TakeBatch(batch, got)
			for l := range got {
				want := alone[l].Take()
				if len(got[l].Samples) == 0 || len(got[l].Samples) != len(want.Samples) || got[l].StartCycle != want.StartCycle {
					t.Fatalf("%d lanes, record %v, lane %d: %d samples from %d, alone %d from %d", lanes, rec != nil, l,
						len(got[l].Samples), got[l].StartCycle, len(want.Samples), want.StartCycle)
				}
				for k := range want.Samples {
					if got[l].Samples[k] != want.Samples[k] {
						t.Fatalf("%d lanes, record %v, lane %d, sample %d: batch %.18g != alone %.18g",
							lanes, rec != nil, l, k, got[l].Samples[k], want.Samples[k])
					}
				}
				got[l].Release()
				want.Release()
			}
		}
	}
}
