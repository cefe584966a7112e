package fault

import (
	"context"
	"fmt"
	"sort"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/rng"
)

// Sweep is the fault engine: an exhaustive or stratified map of the
// single-bit fault space of ONE computation — one scalar, one base
// point, one TRNG stream, all derived from the seed. It enumerates the
// (cycle × register × bit) grid of faults over a window of the
// program, classifying every injection as benign/detected/escaped
// under output validation.
//
// Two structural optimizations make exhaustive coverage affordable:
//
//   - one shared quiet reference run per sweep (RunWithFault pays a
//     full evented fault-free simulation per injection);
//   - one evented cycle per faulted run: the run records only its
//     injection cycle (coproc.LaneCPU.Record), so every instruction
//     before and after the one holding it executes without event
//     bookkeeping.
//
// Determinism: jobs are enumerated in a fixed grid order and each
// faulted run is a pure function of its injection (power-on state,
// TRNG stream re-seeded per run), and the tallies fold by integer
// counting and in-order escape-list concatenation, so the report is
// bit-identical for any worker count.
type SweepConfig struct {
	// FromIter/ToIter bound the ladder-iteration window swept,
	// numbered in processing order from 162 down to 0; FromIter must
	// be >= ToIter and >= 0. ToIter = -1 extends the window past the
	// ladder to the program's last cycle, through the Itoh–Tsujii
	// inversion and y-recovery. The zero value sweeps the final
	// iteration — the suffix a Bellcore-style attacker targets.
	FromIter, ToIter int
	// CycleStride/RegStride/BitStride stratify the grid: every Nth
	// cycle of the window, every Nth register, every Nth bit. Values
	// <= 0 mean 1 (exhaustive in that dimension).
	CycleStride, RegStride, BitStride int
	// Workers is the campaign pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Seed derives the swept computation: scalar, base point and the
	// device TRNG stream.
	Seed uint64
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

// Sweep runs the exhaustive fault-space map described on SweepConfig.
func Sweep(curve *ec.Curve, tim coproc.Timing, cfg SweepConfig) (*SweepReport, error) {
	if cfg.FromIter < cfg.ToIter || cfg.FromIter < 0 || cfg.FromIter > 162 || cfg.ToIter < -1 {
		return nil, fmt.Errorf("fault: iteration window %d..%d invalid", cfg.FromIter, cfg.ToIter)
	}
	strideOr1 := func(s int) int {
		if s <= 0 {
			return 1
		}
		return s
	}
	cs, rs, bs := strideOr1(cfg.CycleStride), strideOr1(cfg.RegStride), strideOr1(cfg.BitStride)

	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	start, end := prog.IterationWindow(tim, cfg.FromIter, max(cfg.ToIter, 0))
	if cfg.ToIter < 0 {
		end = prog.CycleCount(tim)
	}
	spans := prog.Spans(tim)

	// The swept computation, fixed for the whole grid.
	d := rng.NewDRBG(cfg.Seed)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	trngSeed := cfg.Seed ^ 0xF1A7_5EED

	// The fault-free result, from one quiet run.
	ref := coproc.NewCPU(tim)
	ref.Rand = rng.NewDRBG(trngSeed).Uint64
	ref.SetOperandConstants(p.X, curve.B, p.Y)
	if _, err := ref.Run(prog, k); err != nil {
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

	prepare := func(idx int) (Injection, error) {
		c := idx / (nRegs * nBits)
		r := (idx / nBits) % nRegs
		b := idx % nBits
		return Injection{Cycle: start + c*cs, Reg: r * rs, Bit: b * bs}, nil
	}
	// Each worker owns one faulted-run machine, built on its first job.
	machines := make([]*sweepMachine, campaign.Workers(cfg.Workers))
	consts := coproc.OperandConstants(p.X, curve.B, p.Y)
	acquire := func(worker, idx int, inj Injection) (Result, error) {
		if err := inj.validate(); err != nil {
			return 0, err
		}
		m := machines[worker]
		if m == nil {
			m = &sweepMachine{lc: coproc.NewLaneCPU(tim), drbg: rng.NewDRBG(trngSeed)}
			m.run[0] = coproc.LaneRun{Key: k, Rand: m.drbg.Uint64, Consts: consts, Sink: m.inject}
			m.lc.Record = m.record[:]
			machines[worker] = m
		}
		m.drbg.Reseed(trngSeed)
		m.inj, m.injected = inj, false
		m.record[0] = inj.Cycle
		if _, err := m.lc.Run(prog, m.run[:]); err != nil {
			return 0, err
		}
		if !m.injected {
			return 0, &InjectionError{Inj: inj, Reason: "cycle beyond program end"}
		}
		return classify(curve, want, ec.Point{X: m.lc.Result(0, prog.ResultX), Y: m.lc.Result(0, prog.ResultY)}), nil
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
	// the merged report is bit-identical for any worker count.
	type shardTally struct {
		Tally
		byOp    map[coproc.Op]*Tally
		escapes []Injection
	}
	ccfg := campaign.Config{Workers: cfg.Workers, Ctx: cfg.Ctx}
	_, err := campaign.Run(0, total, ccfg, prepare, campaign.PerSample(acquire),
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
	return rep, nil
}

// sweepMachine is one worker's faulted-run state: a width-1 LaneCPU
// evented only at the injection cycle (its record list), the TRNG it
// re-seeds per run, and the injection its sink fires.
type sweepMachine struct {
	lc       *coproc.LaneCPU
	drbg     *rng.DRBG
	run      [1]coproc.LaneRun
	record   [1]int
	inj      Injection
	injected bool
}

// inject is the faulted run's sink: it flips the target bit on the
// injection cycle, after that cycle's architectural update.
func (m *sweepMachine) inject(ev *coproc.CycleEvent) {
	if !m.injected && ev.Cycle == m.inj.Cycle {
		m.lc.FlipBit(0, m.inj.Reg, m.inj.Bit)
		m.injected = true
	}
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
