package fault

import (
	"context"
	"fmt"
	"sort"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/obs"
	"medsec/internal/rng"
)

// Sweep is the exhaustive/stratified fault-space map. Where Campaign
// samples random (computation, fault) pairs, Sweep fixes ONE
// computation — one scalar, one base point, one TRNG stream, all
// derived from the seed — and enumerates the (cycle × register × bit)
// grid of single-bit faults over a ladder-iteration window, classifying
// every injection as benign/detected/escaped under output validation.
//
// Two structural optimizations make exhaustive coverage affordable:
//
//   - one shared reference run per sweep (the historical code paid a
//     full fault-free simulation per sample);
//   - checkpoint/resume: the reference run is checkpointed at
//     instruction boundaries (coproc.RunCheckpointed) and every faulted
//     run resumes from the last checkpoint before its injection cycle
//     (coproc.Resume), simulating only the suffix the fault can affect.
//     For the late-iteration windows that matter for Bellcore-style
//     attacks the suffix is a few dozen instructions, not the whole
//     ladder.
//
// Determinism: jobs are enumerated in a fixed grid order and each
// faulted run is a pure function of its injection (fresh CPU, fresh
// TRNG stream fast-forwarded by the checkpoint), so the report is
// bit-identical for any worker count.
type SweepConfig struct {
	// FromIter/ToIter bound the ladder-iteration window swept,
	// numbered in processing order from 162 down to 0; FromIter must
	// be >= ToIter. The zero value sweeps the final iteration — the
	// suffix a Bellcore-style attacker targets and the cheapest to
	// resume.
	FromIter, ToIter int
	// CycleStride/RegStride/BitStride stratify the grid: every Nth
	// cycle of the window, every Nth register, every Nth bit. Values
	// <= 0 mean 1 (exhaustive in that dimension).
	CycleStride, RegStride, BitStride int
	// Workers is the campaign pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Shards selects the sharded reduction of the sweep tallies: 0
	// selects campaign.DefaultShards, a positive value fixes the shard
	// count, and negative values are refused. The fold is pure integer
	// counting and escape-list concatenation, so unlike the
	// floating-point campaigns the sweep report is bit-identical for any
	// worker AND any shard count.
	Shards int
	// Seed derives the swept computation: scalar, base point and the
	// device TRNG stream.
	Seed uint64
	// Progress, when non-nil, is called serially as injections are
	// folded with (done, total); done is monotone but may skip counts.
	Progress func(done, total int)
	// Metrics, when non-nil, receives sweep instrumentation: counters
	// fault_injections (completed faulted runs),
	// fault_checkpoint_resumed_cycles (simulation cycles skipped by
	// resuming from the reference run's checkpoints) and the tally
	// counters fault_benign / fault_detected / fault_escaped, plus a
	// fault_grid_total gauge and the campaign_* engine instruments.
	// Nil (the default) costs nothing; the report is bit-identical
	// either way.
	Metrics *obs.Registry
	// Ctx, when non-nil, makes the sweep interruptible: on cancellation
	// (SIGINT/SIGTERM in the CLIs) the engine drains its worker pool
	// and Sweep returns campaign.ErrInterrupted. A nil Ctx (the
	// default) is never checked.
	Ctx context.Context
}

// Tally is one benign/detected/escaped count triple.
type Tally struct {
	Benign   int
	Detected int
	Escaped  int
}

// Runs returns the total injections behind the tally.
func (t Tally) Runs() int { return t.Benign + t.Detected + t.Escaped }

// OpTally is the per-instruction-class breakdown entry: how faults
// injected while instructions of one opcode were executing fared.
type OpTally struct {
	Op coproc.Op
	Tally
}

// SweepReport aggregates an exhaustive fault-space sweep.
type SweepReport struct {
	Tally
	// Total is the grid size; Runs() == Total unless the sweep was
	// stopped early.
	Total int
	// WindowStart/WindowEnd are the swept cycle interval [start, end).
	WindowStart, WindowEnd int
	// ByOp is the per-instruction-class breakdown, sorted by opcode.
	ByOp []OpTally
	// Escapes lists every injection whose corrupted result passed
	// validation — the countermeasure's failure inventory (empty for a
	// sound implementation).
	Escapes []Injection
}

// String renders the report summary with the per-class breakdown.
func (r *SweepReport) String() string {
	s := fmt.Sprintf("sweep: %d injections over cycles [%d,%d): %d benign, %d detected, %d escaped",
		r.Runs(), r.WindowStart, r.WindowEnd, r.Benign, r.Detected, r.Escaped)
	for _, ot := range r.ByOp {
		s += fmt.Sprintf("\n  %-8v %5d benign %5d detected %5d escaped",
			ot.Op, ot.Benign, ot.Detected, ot.Escaped)
	}
	return s
}

// Sweep runs the exhaustive fault-space map described on SweepConfig.
func Sweep(curve *ec.Curve, tim coproc.Timing, cfg SweepConfig) (*SweepReport, error) {
	if cfg.FromIter < cfg.ToIter || cfg.ToIter < 0 || cfg.FromIter > 162 {
		return nil, fmt.Errorf("fault: iteration window %d..%d invalid", cfg.FromIter, cfg.ToIter)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fault: SweepConfig.Shards = %d is negative (0 selects campaign.DefaultShards)", cfg.Shards)
	}
	strideOr1 := func(s int) int {
		if s <= 0 {
			return 1
		}
		return s
	}
	cs, rs, bs := strideOr1(cfg.CycleStride), strideOr1(cfg.RegStride), strideOr1(cfg.BitStride)

	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	start, end := prog.IterationWindow(tim, cfg.FromIter, cfg.ToIter)
	spans := prog.Spans(tim)

	// The swept computation, fixed for the whole grid.
	d := rng.NewDRBG(cfg.Seed)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	trngSeed := cfg.Seed ^ 0xF1A7_5EED

	// One reference run, checkpointed at every instruction boundary up
	// to the window end (later checkpoints can never be resumed from).
	ref := coproc.NewCPU(tim)
	ref.Rand = rng.NewDRBG(trngSeed).Uint64
	ref.SetOperandConstants(p.X, curve.B, p.Y)
	snaps, _, err := ref.RunCheckpointed(prog, k, func(idx, cycle int) bool { return cycle < end })
	if err != nil {
		return nil, err
	}
	want := ec.Point{X: ref.ResultX(prog), Y: ref.ResultY(prog)}

	// Grid enumeration: cycle-major, then register, then bit.
	nCycles := (end - start + cs - 1) / cs
	nRegs := (coproc.NumRegs + rs - 1) / rs
	nBits := (163 + bs - 1) / bs
	total := nCycles * nRegs * nBits
	if total == 0 {
		return nil, fmt.Errorf("fault: empty sweep grid")
	}

	rep := &SweepReport{Total: total, WindowStart: start, WindowEnd: end}
	byOp := map[coproc.Op]*Tally{}

	// Instruments, resolved once per sweep (nil-safe no-ops when
	// cfg.Metrics is nil).
	mInjections := cfg.Metrics.Counter("fault_injections")
	mResumedCycles := cfg.Metrics.Counter("fault_checkpoint_resumed_cycles")
	cfg.Metrics.Gauge("fault_grid_total").Set(float64(total))

	prepare := func(idx int) (Injection, error) {
		c := idx / (nRegs * nBits)
		r := (idx / nBits) % nRegs
		b := idx % nBits
		return Injection{Cycle: start + c*cs, Reg: r * rs, Bit: b * bs}, nil
	}
	acquire := func(worker, idx int, inj Injection) (Result, error) {
		if err := inj.validate(); err != nil {
			return 0, err
		}
		// Resume from the last checkpoint at or before the injection
		// cycle. Checkpoint cycles are strictly increasing instruction
		// starts, so binary search finds it.
		si := sort.Search(len(snaps), func(i int) bool { return snaps[i].Cycle > inj.Cycle }) - 1
		if si < 0 {
			return 0, &InjectionError{Inj: inj, Reason: "cycle before program start"}
		}
		mInjections.Inc()
		// Every cycle before the resumed checkpoint is one the faulted
		// run did not have to re-simulate — the sweep's headline saving.
		mResumedCycles.Add(int64(snaps[si].Cycle))
		cpu := coproc.NewCPU(tim)
		cpu.Rand = rng.NewDRBG(trngSeed).Uint64
		cpu.SetOperandConstants(p.X, curve.B, p.Y)
		injected := false
		cpu.Probe = func(ev *coproc.CycleEvent) {
			if !injected && ev.Cycle == inj.Cycle {
				cpu.FlipBit(inj.Reg, inj.Bit)
				injected = true
			}
		}
		if _, err := cpu.Resume(prog, k, snaps[si]); err != nil {
			return 0, err
		}
		if !injected {
			return 0, &InjectionError{Inj: inj, Reason: "cycle beyond program end"}
		}
		got := ec.Point{X: cpu.ResultX(prog), Y: cpu.ResultY(prog)}
		if got.Equal(want) {
			return Benign, nil
		}
		if err := ValidateOutput(curve, got); err != nil {
			return Detected, nil
		}
		return Escaped, nil
	}
	// tallyIn classifies one injection's result into a tally triple and
	// the per-opcode breakdown.
	tallyIn := func(t *Tally, ops map[coproc.Op]*Tally, escapes *[]Injection, inj Injection, res Result) {
		op := opAtCycle(spans, inj.Cycle)
		ot := ops[op]
		if ot == nil {
			ot = &Tally{}
			ops[op] = ot
		}
		switch res {
		case Benign:
			t.Benign++
			ot.Benign++
		case Detected:
			t.Detected++
			ot.Detected++
		case Escaped:
			t.Escaped++
			ot.Escaped++
			*escapes = append(*escapes, inj)
		}
	}

	// Sharded reduction: per-shard tallies, opcode maps and escape lists
	// fold on the worker goroutines and merge in shard order. Counts add
	// and the escape lists concatenate (each shard's in grid order), so
	// the merged report is bit-identical for any worker or shard count.
	type shardTally struct {
		Tally
		byOp    map[coproc.Op]*Tally
		escapes []Injection
	}
	var progress func(done int)
	if cfg.Progress != nil {
		progress = func(done int) { cfg.Progress(done, total) }
	}
	ccfg := campaign.Config{Workers: cfg.Workers, Shards: cfg.Shards, Progress: progress, Metrics: cfg.Metrics, Ctx: cfg.Ctx}
	_, err = campaign.Run(0, total, ccfg, prepare, campaign.PerSample(acquire),
		func(shard int) *shardTally { return &shardTally{byOp: map[coproc.Op]*Tally{}} },
		func(shard int, st *shardTally, idx int, inj Injection, res Result) error {
			tallyIn(&st.Tally, st.byOp, &st.escapes, inj, res)
			return nil
		},
		func(shard int, st *shardTally) error {
			rep.Benign += st.Benign
			rep.Detected += st.Detected
			rep.Escaped += st.Escaped
			for op, t := range st.byOp {
				agg := byOp[op]
				if agg == nil {
					agg = &Tally{}
					byOp[op] = agg
				}
				agg.Benign += t.Benign
				agg.Detected += t.Detected
				agg.Escaped += t.Escaped
			}
			rep.Escapes = append(rep.Escapes, st.escapes...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	for op, t := range byOp {
		rep.ByOp = append(rep.ByOp, OpTally{Op: op, Tally: *t})
	}
	sort.Slice(rep.ByOp, func(i, j int) bool { return rep.ByOp[i].Op < rep.ByOp[j].Op })
	// Outcome tallies (single Add per sweep, after the merge).
	cfg.Metrics.Counter("fault_benign").Add(int64(rep.Benign))
	cfg.Metrics.Counter("fault_detected").Add(int64(rep.Detected))
	cfg.Metrics.Counter("fault_escaped").Add(int64(rep.Escaped))
	return rep, nil
}

// opAtCycle returns the opcode of the instruction executing at the
// given cycle (spans are contiguous and sorted by Start).
func opAtCycle(spans []coproc.InstrSpan, cycle int) coproc.Op {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].End > cycle })
	if i == len(spans) {
		return spans[len(spans)-1].Op
	}
	return spans[i].Op
}
