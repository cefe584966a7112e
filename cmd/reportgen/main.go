// Command reportgen runs the paper's experiments and writes a
// self-contained markdown reproduction report (default: REPORT.md) —
// every paper claim next to this run's measured value. It is the only
// place an experiment (E1–E17) is computed: one compute function per
// E-number returns the values its section prints, and render turns
// them into markdown. The DPA campaigns are the slow part; E2's
// secret-randomness row attacks the paper's full 20 000 traces.
//
// With -manifests a,b.json,... the run manifests emitted by the lab
// CLIs (-metrics out.json on scalab/linklab/eccsim) are validated
// and folded into the report as a provenance appendix: per run, the
// tool, seed, git SHA and flag set, plus the metric snapshot — so the
// report records not only the numbers but the exact instrumented runs
// that produced them.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"medsec/internal/area"
	"medsec/internal/cliutil"
	"medsec/internal/coproc"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/fault"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/privacy"
	"medsec/internal/protocol"
	"medsec/internal/puf"
	"medsec/internal/radio"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/soc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reportgen: ")
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reportgen", flag.ContinueOnError)
	var (
		out       = fs.String("o", "REPORT.md", "output file")
		seed      = fs.Uint64("seed", 1, "experiment seed")
		manifests = fs.String("manifests", "", "comma-separated run-manifest JSON files (or globs) to fold into the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Load and validate the manifests up front: a truncated or foreign
	// file should fail the run before the campaigns, not after.
	mans, err := loadManifests(*manifests)
	if err != nil {
		return err
	}

	start := time.Now()
	r, err := compute(ctx, *seed)
	if err != nil {
		return err
	}
	if err := writeReport(*out, r, mans, time.Since(start)); err != nil {
		return err
	}
	log.Printf("wrote %s in %s", *out, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeReport renders the report and writes it to path in one call,
// so a failed write or close is the run's error.
func writeReport(path string, r *results, mans []loadedManifest, elapsed time.Duration) error {
	return os.WriteFile(path, render(r, mans, elapsed), 0o644)
}

// results holds every value the report prints, one field per E-number.
type results struct {
	seed uint64
	e1   design.Measurement
	e2   e2Result
	e3   *sca.TimingReport
	e4   e4Result
	e5   e5Result
	e6   []area.ModuleGE
	e7   e7Result
	e8   e8Result
	e9   e9Result
	e10  []e10Row
	e11  e11Result
	e12  e12Result
	e13  []e13Row
	e14  []e14Window
	e15  e15Result
	e16  e16Result
	e17  e17Result
}

// lab is the state several experiments share: the E2 lab stack, the
// device key, and the key stream that E11, E12 and E17 draw from in
// that order (the order is part of the report's bytes).
type lab struct {
	ctx  context.Context
	seed uint64
	pt   design.Point
	st   *design.Stack
	key  modn.Scalar
	src  func() uint64
}

// compute runs every experiment at seed, in E-number order.
func compute(ctx context.Context, seed uint64) (*results, error) {
	pt := design.Defaults()
	pt.Seed = seed
	pt.TRNGSeed = seed + 99
	pt.XOnly = true
	pt.NoiseSigma = design.LabNoiseSigma
	st, err := pt.Build()
	if err != nil {
		return nil, err
	}
	l := &lab{ctx: ctx, seed: seed, pt: pt, st: st, key: st.DeviceKey(seed), src: rng.NewDRBG(seed + 6).Uint64}

	r := &results{seed: seed}
	steps := []struct {
		name string
		run  func() error
	}{
		{"E1: operating point", func() (err error) { r.e1, err = computeE1(seed); return }},
		{"E2: DPA campaigns", func() (err error) { r.e2, err = computeE2(l); return }},
		{"E3: timing", func() error {
			r.e3 = sca.TimingAttack(st.Curve, st.Timing, 500, rng.NewDRBG(seed+4).Uint64)
			return nil
		}},
		{"E4: digit sweep", func() (err error) { r.e4, err = computeE4(); return }},
		{"E5: register pressure", func() error { r.e5 = computeE5(l); return nil }},
		{"E6: gate counts", func() error { r.e6 = area.ModuleGateCounts(); return nil }},
		{"E7: radio crossover", func() (err error) { r.e7, err = computeE7(); return }},
		{"E8: privacy games", func() (err error) { r.e8, err = computeE8(seed); return }},
		{"E9: SPA ablation", func() (err error) { r.e9, err = computeE9(l); return }},
		{"E10: countermeasure cost", func() (err error) { r.e10, err = computeE10(l); return }},
		{"E11: session ordering", func() (err error) { r.e11, err = computeE11(l); return }},
		{"E12: TVLA", func() (err error) { r.e12, err = computeE12(l); return }},
		{"E13: security level", func() error { r.e13 = computeE13(); return nil }},
		{"E14: fault sweep", func() (err error) { r.e14, err = computeE14(l); return }},
		{"E15: ISA security", func() (err error) { r.e15, err = computeE15(seed); return }},
		{"E16: PUF", func() (err error) { r.e16, err = computeE16(seed); return }},
		{"E17: masked datapath vs higher-order attacks", func() (err error) { r.e17, err = computeE17(l); return }},
	}
	for _, s := range steps {
		log.Print(s.name)
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return r, nil
}

// target mints a lab target at the given RPC setting. ^C against the
// report run cancels the campaign in flight instead of leaving a
// zombie acquisition pool.
func (l *lab) target(rpc bool) (*sca.Target, error) {
	p := l.pt
	p.RPC = rpc
	st, err := p.Build()
	if err != nil {
		return nil, err
	}
	tgt, err := st.Target(l.key)
	if err != nil {
		return nil, err
	}
	tgt.Ctx = l.ctx
	return tgt, nil
}

// randKey draws a TVLA random-set key from the shared stream.
func (l *lab) randKey() modn.Scalar { return sca.AlgorithmOneScalar(l.st.Curve, l.src) }

// computeE1 meters one noise-free point multiplication on the chip.
func computeE1(seed uint64) (design.Measurement, error) {
	p := design.Defaults()
	p.Seed = seed
	p.TRNGSeed = seed
	p.NoiseSigma = 0
	st, err := p.Build()
	if err != nil {
		return design.Measurement{}, err
	}
	chip, err := st.Chip()
	if err != nil {
		return design.Measurement{}, err
	}
	if _, err := chip.ScalarMul(chip.GenerateScalar(), chip.Curve().Generator()); err != nil {
		return design.Measurement{}, err
	}
	return chip.Last, nil
}

// e2SecretTraces is the paper's failing campaign size for DPA against
// RPC with secret randomness.
const e2SecretTraces = 20000

type e2Result struct {
	off, known int // traces to success, -1 if never
	secret     *sca.CPAResult
}

func computeE2(l *lab) (e2Result, error) {
	var r e2Result
	tgt, err := l.target(false)
	if err != nil {
		return r, err
	}
	if r.off, _, err = sca.TracesToSuccess(tgt, []int{50, 100, 150, 200, 300, 450, 700}, 6,
		sca.CPAOptions{}, rng.NewDRBG(l.seed+1).Uint64); err != nil {
		return r, err
	}
	if tgt, err = l.target(true); err != nil {
		return r, err
	}
	if r.known, _, err = sca.TracesToSuccess(tgt, []int{100, 300, 700, 1500}, 6,
		sca.CPAOptions{KnownMasks: true}, rng.NewDRBG(l.seed+2).Uint64); err != nil {
		return r, err
	}
	if tgt, err = l.target(true); err != nil {
		return r, err
	}
	camp, err := tgt.AcquireCampaign(e2SecretTraces, 160, 155, rng.NewDRBG(l.seed+3).Uint64)
	if err != nil {
		return r, err
	}
	r.secret, err = sca.CPA(camp, sca.CPAOptions{Bits: 6})
	return r, err
}

type e4Result struct {
	rows []area.DigitSweepRow
	opt  int
}

func computeE4() (e4Result, error) {
	rows, err := area.DigitSweep([]int{1, 2, 4, 8, 16, 32}, design.DefaultClockHz, 0.11)
	if err != nil {
		return e4Result{}, err
	}
	opt, err := area.OptimalDigit(rows)
	return e4Result{rows: rows, opt: opt}, err
}

type e5Result struct {
	loop, ram    int
	mplGE, cozGE float64
}

func computeE5(l *lab) e5Result {
	loop, ram := l.st.Ladder().RegisterPressure()
	return e5Result{loop: loop, ram: ram,
		mplGE: area.RegisterStorageGE(loop, 163),
		cozGE: area.RegisterStorageGE(area.CoZRegisters, 163)}
}

type e7Result struct {
	sym, pk   string
	rows      []radio.SweepRow
	crossover float64
}

func computeE7() (e7Result, error) {
	m := radio.DefaultModel()
	costs := radio.PaperCosts()
	sym, pk := radio.SymmetricKDC(), radio.PublicKeyLocal()
	d, err := m.Crossover(sym, pk, costs, 0, 100)
	return e7Result{
		sym: sym.Name, pk: pk.Name,
		rows:      m.SweepScenarios(sym, pk, costs, []float64{0.5, 1, 2, 5, 10, 15, 20, 30, 50, 80}),
		crossover: d,
	}, err
}

type e8Result struct {
	schnorr, ph, corrupt *privacy.GameResult
}

func computeE8(seed uint64) (e8Result, error) {
	var r e8Result
	var err error
	if r.schnorr, err = privacy.RunLinkingGame(privacy.GameConfig{Protocol: privacy.Schnorr, Rounds: 50, Seed: seed}); err != nil {
		return r, err
	}
	if r.ph, err = privacy.RunLinkingGame(privacy.GameConfig{Protocol: privacy.PeetersHermans, Rounds: 50, Seed: seed}); err != nil {
		return r, err
	}
	// The sanity row hands the linker the reader secret: it must win,
	// so Peeters–Hermans' low advantage is the protocol's doing.
	r.corrupt, err = privacy.RunLinkingGame(privacy.GameConfig{Protocol: privacy.PeetersHermans, Rounds: 12, Seed: seed, CorruptReader: true})
	return r, err
}

// The circuit-level design points of E9 and E10.
var (
	unbalancedMux = func(p *design.Point) { p.BalancedMux = false }
	clockGating   = func(p *design.Point) { p.DataDepClockGating = true }
	protectedChip = func(p *design.Point) {}
)

// spaStack builds the E9/E10 design point: the chip, x-only like the
// deployed microcode, with mut applied.
func (l *lab) spaStack(mut func(*design.Point)) (*design.Stack, error) {
	p := design.Defaults()
	p.Seed = l.seed
	p.TRNGSeed = l.seed + 5
	p.XOnly = true
	mut(&p)
	return p.Build()
}

// spaAccuracy is single-trace SPA's key-bit accuracy against st.
func (l *lab) spaAccuracy(st *design.Stack) (float64, error) {
	tgt, err := st.Target(l.key)
	if err != nil {
		return 0, err
	}
	tgt.Ctx = l.ctx
	r, err := sca.SPA(tgt, st.Curve.Generator(), 0)
	if err != nil {
		return 0, err
	}
	return r.Accuracy(), nil
}

type e9Result struct {
	unbalanced, gated, protected float64
}

func computeE9(l *lab) (e9Result, error) {
	var r e9Result
	for _, v := range []struct {
		mut func(*design.Point)
		acc *float64
	}{{unbalancedMux, &r.unbalanced}, {clockGating, &r.gated}, {protectedChip, &r.protected}} {
		st, err := l.spaStack(v.mut)
		if err != nil {
			return r, err
		}
		if *v.acc, err = l.spaAccuracy(st); err != nil {
			return r, err
		}
	}
	return r, nil
}

// e10Row prices one countermeasure choice against what one-trace SPA
// achieves on it.
type e10Row struct {
	name        string
	energyJ     float64 // per point multiplication, y-recovery included
	vsChip      float64 // energyJ over the protected chip's
	spaAccuracy float64
	rpc         bool
}

// computeE10 is the paper's conclusion as a table: what each
// countermeasure costs in energy, and what one-trace SPA achieves. The
// protected chip is priced first, so every row carries its ratio to it.
func computeE10(l *lab) ([]e10Row, error) {
	// Energy is metered noise-free on its own key and mask streams.
	energy := func(st *design.Stack) (float64, error) {
		meas, err := st.MeasurePointMul(st.DeviceKey(l.seed+5), l.seed+4)
		return meas.EnergyJ, err
	}
	chip, err := l.spaStack(protectedChip)
	if err != nil {
		return nil, err
	}
	base, err := energy(chip)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mut  func(*design.Point)
	}{
		{"no countermeasures at all", func(p *design.Point) {
			p.RPC = false
			p.BalancedMux = false
			p.DataDepClockGating = true
			p.InputIsolation = false
			p.GlitchFree = false
		}},
		{"unbalanced muxes only", unbalancedMux},
		{"data-dependent clock gating", clockGating},
		{"the paper's chip (protected CMOS)", protectedChip},
		{"protected + WDDL", func(p *design.Point) { p.Logic = "WDDL" }},
		{"protected + SABL", func(p *design.Point) { p.Logic = "SABL" }},
	}
	rows := make([]e10Row, len(variants))
	for i, v := range variants {
		st, err := l.spaStack(v.mut)
		if err != nil {
			return nil, err
		}
		e, err := energy(st)
		if err != nil {
			return nil, err
		}
		acc, err := l.spaAccuracy(st)
		if err != nil {
			return nil, err
		}
		rows[i] = e10Row{name: v.name, energyJ: e, vsChip: e / base, spaAccuracy: acc, rpc: st.Point.RPC}
	}
	return rows, nil
}

type e11Result struct {
	serverFirst, idFirst int // point multiplications wasted on a rogue server
}

func computeE11(l *lab) (e11Result, error) {
	curve := l.st.Curve
	mul := &protocol.SoftwareMultiplier{Curve: curve, Rand: l.src}
	rdr, err := protocol.NewReader(curve, mul, l.src)
	if err != nil {
		return e11Result{}, err
	}
	tag, err := protocol.NewTag(curve, mul, l.src, rdr.Pub)
	if err != nil {
		return e11Result{}, err
	}
	rdr.Register(tag.Pub)
	good, err := protocol.RunMutualAuth(tag, rdr, true, true)
	if err != nil {
		return e11Result{}, err
	}
	bad, err := protocol.RunMutualAuth(tag, rdr, false, true)
	if err != nil {
		return e11Result{}, err
	}
	return e11Result{serverFirst: good.DeviceLedger.PointMuls, idFirst: bad.DeviceLedger.PointMuls}, nil
}

type e12Result struct {
	off, on *sca.TVLAResult
}

func computeE12(l *lab) (e12Result, error) {
	var r e12Result
	for _, v := range []struct {
		rpc bool
		res **sca.TVLAResult
	}{{false, &r.off}, {true, &r.on}} {
		tgt, err := l.target(v.rpc)
		if err != nil {
			return r, err
		}
		if *v.res, err = sca.TVLA(tgt, sca.FixedPoint(l.st.Curve), 200, 160, 157, l.randKey); err != nil {
			return r, err
		}
	}
	return r, nil
}

// e13Row is one field size, counted from the chip's microcode.
type e13Row struct {
	m, securityBits, cycles int
}

// opMix counts instructions by opcode.
type opMix map[coproc.Op]int

// cycles prices the mix in GF(2^m) under t: a MUL or SQR streams
// ⌈m/d⌉ digits through the MALU plus its fixed overhead (t.Digits is
// fixed at m = 163), every other instruction is single-cycle.
func (x opMix) cycles(m int, t coproc.Timing) int {
	malu := (m+t.DigitSize-1)/t.DigitSize + t.MulOverhead
	n := 0
	for op, k := range x {
		if op == coproc.OpMul || op == coproc.OpSqr {
			n += k * malu
		} else {
			n += k * t.SingleCycle
		}
	}
	return n
}

// ladderSections counts prog in three sections: the prologue before
// the first ladder instruction, ladder iteration 0 (every iteration
// runs the same mix), and the post-processing after the loop.
func ladderSections(prog *coproc.Program) (pre, iter, post opMix) {
	pre, iter, post = opMix{}, opMix{}, opMix{}
	looped := false
	for _, in := range prog.Instrs {
		looped = looped || in.Iteration >= 0
		switch {
		case !looped:
			pre[in.Op]++
		case in.Iteration == 0:
			iter[in.Op]++
		case in.Iteration < 0:
			post[in.Op]++
		}
	}
	return pre, iter, post
}

// inversionMix is the Itoh–Tsujii inversion in GF(2^m) as the
// microcode builds it: m−1 squarings, one MUL per step of the binary
// addition chain to m−1 (⌊log₂(m−1)⌋ + wt(m−1) − 1 steps), and one
// MOVE per step plus two.
func inversionMix(m int) opMix {
	n := uint(m - 1)
	steps := bits.Len(n) + bits.OnesCount(n) - 2
	return opMix{coproc.OpSqr: m - 1, coproc.OpMul: steps, coproc.OpMove: steps + 2}
}

// computeE13 counts one point multiplication per field size from E1's
// GF(2^163) microcode (RPC, y-recovery): the prologue, m ladder
// iterations, and the post-processing with its inversion rebuilt for
// m. It runs nothing; only the m = 163 program exists, and E1 runs it.
func computeE13() []e13Row {
	t := coproc.DefaultTiming()
	pre, iter, post := ladderSections(coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true}))
	chipInv := inversionMix(gf2m.M)
	rows := []e13Row{{m: 131, securityBits: 65}, {m: 163, securityBits: 80}, {m: 233, securityBits: 112}, {m: 283, securityBits: 128}}
	for i := range rows {
		m := rows[i].m
		rows[i].cycles = pre.cycles(m, t) + m*iter.cycles(m, t) +
			post.cycles(m, t) - chipInv.cycles(m, t) + inversionMix(m).cycles(m, t)
	}
	return rows
}

// e14Window is one E14 sweep: its window's name and report.
type e14Window struct {
	name string
	rep  *fault.SweepReport
}

// computeE14 sweeps single-bit faults over two windows of one
// computation at the report seed: the first ladder iteration, and the
// final one through the inversion and y-recovery (ToIter -1), where a
// wrong output that still looks valid would most likely come from.
func computeE14(l *lab) ([]e14Window, error) {
	var out []e14Window
	for _, w := range []struct {
		name string
		cfg  fault.SweepConfig
	}{
		{"iteration 162 (first)", fault.SweepConfig{FromIter: 162, ToIter: 162, CycleStride: 25, BitStride: 82}},
		{"iteration 0 (final) to the last cycle", fault.SweepConfig{FromIter: 0, ToIter: -1, CycleStride: 41, BitStride: 82}},
	} {
		w.cfg.Seed, w.cfg.Ctx = l.seed, l.ctx
		rep, err := fault.Sweep(l.st.Curve, l.st.Timing, w.cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, e14Window{w.name, rep})
	}
	return out, nil
}

// E15 runs e15Scripts command scripts of e15Commands commands each.
const e15Scripts, e15Commands = 500, 10

type e15Result struct {
	exposures int            // observations holding the key's bytes
	cycles    [2]map[int]int // cycle count -> completed runs, k·P and x-only
	zeroXOnly soc.Status     // status after an x-only run with a zero key
}

// computeE15 drives the co-processor's MCU command interface (soc)
// with random command scripts drawn from the report seed. Each script
// gets a fresh device, key and point, writes the key, then issues
// random commands. Every result, status, cycle count and error the
// interface returns is searched for the key's low 20 bytes, and the
// cycle counts of completed runs are collected per operation: exposing
// them is safe only if the key does not move them.
func computeE15(seed uint64) (e15Result, error) {
	curve := ec.K163()
	src := rng.NewDRBG(seed + 15).Uint64
	r := e15Result{cycles: [2]map[int]int{{}, {}}}
	for i := 0; i < e15Scripts; i++ {
		d := soc.NewDevice(src())
		key := curve.Order.RandNonZero(src)
		p := curve.RandomPoint(src)
		if err := d.WriteKey(key); err != nil {
			return r, err
		}
		var seen [][]byte
		for c := 0; c < e15Commands; c++ {
			var err error
			switch op := src() % 7; op {
			case 0:
				err = d.WriteKey(key)
			case 1:
				err = d.WritePoint(p)
			case 2, 3:
				start := d.StartPointMul
				if op == 3 {
					start = d.StartXOnly
				}
				if err = start(); err == nil {
					r.cycles[op-2][d.Cycles()]++
				}
			case 4:
				var res ec.Point
				if res, err = d.ReadResult(); err == nil {
					seen = append(seen, res.X.Bytes(), res.Y.Bytes())
				}
			case 5:
				var x gf2m.Element
				if x, err = d.ReadResultX(); err == nil {
					seen = append(seen, x.Bytes())
				}
			case 6:
				d.ClearKey()
			}
			if err != nil {
				seen = append(seen, []byte(err.Error()))
			}
			cyc := d.Cycles()
			seen = append(seen, []byte{byte(d.Poll())}, []byte{byte(cyc), byte(cyc >> 8), byte(cyc >> 16)})
		}
		keyBytes := key.Bytes()[modn.ByteLen-20:]
		for _, b := range seen {
			if bytes.Contains(b, keyBytes) {
				r.exposures++
			}
		}
	}
	d := soc.NewDevice(src())
	if err := d.WriteKey(modn.Zero()); err != nil {
		return r, err
	}
	if err := d.WritePoint(curve.RandomPoint(src)); err != nil {
		return r, err
	}
	if err := d.StartXOnly(); err != nil {
		return r, err
	}
	r.zeroXOnly = d.Poll()
	return r, nil
}

type e16Result struct {
	intra, inter float64
	stable       bool // the key reconstructs over 25 power-ups
}

func computeE16(seed uint64) (e16Result, error) {
	dev := puf.New(puf.CellsNeeded, seed)
	key, enr, err := puf.Enroll(dev, seed+7)
	if err != nil {
		return e16Result{}, err
	}
	r := e16Result{stable: true}
	for i := 0; i < 25; i++ {
		got, err := puf.Reconstruct(dev, enr)
		if err != nil || got != key {
			r.stable = false
		}
	}
	r1, r2 := dev.Read(), dev.Read()
	other := puf.New(puf.CellsNeeded, seed+999).Read()
	r.intra, r.inter = puf.HammingFraction(r1, r2), puf.HammingFraction(r1, other)
	return r, nil
}

// e17TracesPerSet is the masked scenario's TVLA set size.
const e17TracesPerSet = 2000

type e17Result struct {
	unmasked1, masked1, masked2 *sca.TVLAResult
	centeredN                   int // centered-product CPA traces to success, -1 if never
	firstOrder                  *sca.CPAResult
}

// maskedTarget builds the E17 scenario: chip noise floor, RPC off,
// residual CSWAP-select imbalance zeroed — that residue is a
// control-path leak Boolean masking cannot cover, and it would
// otherwise dominate both orders (see DESIGN.md §12).
func (l *lab) maskedTarget(masked bool) (*sca.Target, error) {
	p := design.Defaults()
	p.Seed = l.seed
	p.TRNGSeed = l.seed + 99
	p.XOnly = true
	p.RPC = false
	p.ResidualImbalance = 0
	if masked {
		p.Masking = design.MaskingBoolean1
	}
	st, err := p.Build()
	if err != nil {
		return nil, err
	}
	tgt, err := st.Target(st.DeviceKey(l.seed))
	if err != nil {
		return nil, err
	}
	tgt.Ctx = l.ctx
	return tgt, nil
}

func computeE17(l *lab) (e17Result, error) {
	var r e17Result
	fixed := sca.FixedPoint(l.st.Curve)
	for _, v := range []struct {
		masked bool
		tvla   func(*sca.Target, ec.Point, int, int, int, func() modn.Scalar) (*sca.TVLAResult, error)
		res    **sca.TVLAResult
	}{{false, sca.TVLA, &r.unmasked1}, {true, sca.TVLA, &r.masked1}, {true, sca.TVLA2, &r.masked2}} {
		tgt, err := l.maskedTarget(v.masked)
		if err != nil {
			return r, err
		}
		if *v.res, err = v.tvla(tgt, fixed, e17TracesPerSet, 160, 157, l.randKey); err != nil {
			return r, err
		}
	}
	tgt, err := l.maskedTarget(true)
	if err != nil {
		return r, err
	}
	if r.centeredN, _, err = sca.TracesToSuccess(tgt, []int{100, 300, 500, 700, 1000}, 4,
		sca.CPAOptions{Preprocess: sca.PreprocessCenteredProduct}, rng.NewDRBG(l.seed+8).Uint64); err != nil {
		return r, err
	}
	if tgt, err = l.maskedTarget(true); err != nil {
		return r, err
	}
	camp, err := tgt.AcquireCampaign(1000, 160, 157, rng.NewDRBG(l.seed+8).Uint64)
	if err != nil {
		return r, err
	}
	r.firstOrder, err = sca.CPA(camp, sca.CPAOptions{Bits: 4})
	return r, err
}

// render writes the report's markdown.
func render(r *results, mans []loadedManifest, elapsed time.Duration) []byte {
	var b bytes.Buffer
	w := func(format string, a ...interface{}) { fmt.Fprintf(&b, format+"\n", a...) }

	w("# Reproduction report")
	w("")
	w("Generated by `cmd/reportgen` (seed %d). Paper: Fan, Reparaz,", r.seed)
	w("Rožić, Verbauwhede — *Low-Energy Encryption for Medical Devices*,")
	w("DAC 2013. Simulated clock: 847.5 kHz, Vdd 1 V, K-163, d = 4 MALU.")
	w("")

	w("## E1 — operating point")
	w("")
	w("| quantity | paper | measured |")
	w("|---|---|---|")
	w("| power | 50.4 µW | %.2f µW |", r.e1.AvgPowerW*1e6)
	w("| energy / PM | 5.1 µJ | %.3f µJ |", r.e1.EnergyJ*1e6)
	w("| throughput | 9.8 PM/s | %.2f PM/s |", 1/r.e1.DurationS)
	w("| cycles / PM | ~86 480 | %d |", r.e1.Cycles)
	w("")

	w("## E2 — DPA (first 6 key bits)")
	w("")
	w("| setting | paper | measured |")
	w("|---|---|---|")
	w("| RPC off | succeeds, ~200 traces | succeeds at %d traces |", r.e2.off)
	w("| RPC on, randomness known | succeeds | succeeds at %d traces |", r.e2.known)
	outcome := "FAILS"
	if r.e2.secret.Success() {
		outcome = "succeeded (!)"
	}
	w("| RPC on, randomness secret | fails at 20 000 | %s at %d traces (bit accuracy %.2f) |",
		outcome, e2SecretTraces, r.e2.secret.BitAccuracy())
	w("")

	w("## E3 — timing")
	w("")
	w("Ladder: constant %d cycles (variance %.0f). Double-and-add baseline:", r.e3.LadderCycles, r.e3.LadderVariance)
	w("%d–%d cycles, latency/HW correlation %.3f, HW estimate error %.2f bits.",
		r.e3.DAMinCycles, r.e3.DAMaxCycles, r.e3.DAHWCorrelation, r.e3.DARecoveredHWError)
	w("")

	w("## E4 — digit-size sweep")
	w("")
	w("| d | area [GE] | cycles | latency [ms] | power [µW] | energy [µJ] | area·energy | meets latency |")
	w("|---|---|---|---|---|---|---|---|")
	for _, d := range r.e4.rows {
		w("| %d | %.0f | %d | %.1f | %.1f | %.2f | %.0f | %v |",
			d.D, d.AreaGE, d.Cycles, d.LatencyS*1e3, d.PowerW*1e6, d.EnergyJ*1e6, d.AreaEnergy, d.MeetsLatency)
	}
	w("")
	w("Optimum under the latency constraint: **d = %d** (paper: d = 4).", r.e4.opt)
	w("")

	w("## E5/E6 — storage and gate counts")
	w("")
	w("Ladder loop registers: **%d** (paper: six; Co-Z [6] needs %d), %.0f GE of 163-bit storage against Co-Z's %.0f GE. Post-processing RAM words: %d.",
		r.e5.loop, area.CoZRegisters, r.e5.mplGE, r.e5.cozGE, r.e5.ram)
	w("")
	w("| module | GE | source |")
	w("|---|---|---|")
	for _, m := range r.e6 {
		w("| %s | %.0f | %s |", m.Module, m.GE, m.Source)
	}
	w("")

	w("## E7 — secret-key vs public-key energy")
	w("")
	w("Crossover at **%.1f m** backhaul distance: below it the AES+KDC", r.e7.crossover)
	w("option wins, above it the ECC-local option (4 × 5.1 µJ of")
	w("computation, no online third party) wins.")
	w("")
	w("| backhaul [m] | %s [µJ] | %s [µJ] | cheapest |", r.e7.sym, r.e7.pk)
	w("|---|---|---|---|")
	for _, d := range r.e7.rows {
		w("| %.1f | %.1f | %.1f | %s |", d.Meters, d.EnergyA*1e6, d.EnergyB*1e6, d.Cheapest)
	}
	w("")

	w("## E8 — privacy game (%d rounds)", r.e8.schnorr.Rounds)
	w("")
	w("| protocol | linked | advantage |")
	w("|---|---|---|")
	for _, g := range []struct {
		name string
		res  *privacy.GameResult
	}{
		{"Schnorr", r.e8.schnorr},
		{"Peeters–Hermans", r.e8.ph},
		{"Peeters–Hermans, corrupt reader (sanity: the linker can win)", r.e8.corrupt},
	} {
		w("| %s | %d/%d | %.2f |", g.name, g.res.Correct, g.res.Rounds, g.res.Advantage)
	}
	w("")

	w("## E9 — single-trace SPA ablation")
	w("")
	w("| circuit design | bit accuracy |")
	w("|---|---|")
	w("| unbalanced mux selects | %.3f |", r.e9.unbalanced)
	w("| data-dependent clock gating | %.3f |", r.e9.gated)
	w("| protected | %.3f |", r.e9.protected)
	w("")

	w("## E10 — countermeasure cost vs one-trace SPA")
	w("")
	w("> Making a device secure adds an extra design dimension. Indeed, for")
	w("> the design of medical devices, a trade-off between security, power")
	w("> and energy needs to be made. (the paper's conclusion)")
	w("")
	w("| design point | energy / PM [µJ] | vs chip | 1-trace SPA bit accuracy | RPC |")
	w("|---|---|---|---|---|")
	for _, c := range r.e10 {
		w("| %s | %.2f | %.2f× | %.3f | %v |", c.name, c.energyJ*1e6, c.vsChip, c.spaAccuracy, c.rpc)
	}
	w("")

	w("## E11 — rogue-server energy drain")
	w("")
	w("Server-first ordering wastes %d PMs; identification-first wastes %d —", r.e11.serverFirst, r.e11.idFirst)
	w("the paper's ordering rule halves the drained energy.")
	w("")

	w("## E12 — TVLA (200 traces/set, threshold 4.5)")
	w("")
	w("| configuration | max \\|t\\| | verdict |")
	w("|---|---|---|")
	w("| RPC off | %.2f | %s |", r.e12.off.MaxT, verdict(r.e12.off.Leaks))
	w("| protected | %.2f | %s |", r.e12.on.MaxT, verdict(r.e12.on.Leaks))
	w("")

	w("## E13 — security level vs computational load")
	w("")
	w("Counted from the chip's program, not executed: each row takes the")
	w("prologue, one ladder iteration and the post-processing of E1's")
	w("GF(2^163) microcode, runs the iteration m times and rebuilds the")
	w("Itoh–Tsujii inversion for m (m − 1 squarings, and one multiplication")
	w("per step of the addition chain to m − 1). A MUL or SQR costs")
	w("⌈m/4⌉ + 2 cycles on the d = 4 MALU, any other instruction 1.")
	for _, f := range r.e13 {
		if f.m == gf2m.M {
			w("The m = %d row counts %d cycles and E1 measures %d on the same", f.m, f.cycles, r.e1.Cycles)
		}
	}
	w("program; nothing executes at any other m.")
	w("")
	w("| field | security [bit] | cycles / PM | relative |")
	w("|---|---|---|---|")
	for _, f := range r.e13 {
		w("| GF(2^%d) | %d | %d | %.2f× |", f.m, f.securityBits, f.cycles, float64(f.cycles)/float64(r.e13[0].cycles))
	}
	w("")

	var e14Runs, e14Escaped int
	for _, win := range r.e14 {
		e14Runs += win.rep.Runs()
		e14Escaped += win.rep.Escaped
	}
	w("## E14 — fault sweep (%d single-bit glitches)", e14Runs)
	w("")
	w("Stratified (cycle × register × bit) grids of single-bit register")
	w("glitches on one point multiplication. Each faulted result is")
	w("compared with the fault-free one and checked by output validation")
	w("(on-curve and subgroup membership); rows split the outcomes by the")
	w("opcode executing at the glitched cycle. The second window runs past")
	w("the ladder to the program's last cycle, through the Itoh–Tsujii")
	w("inversion and y-recovery.")
	w("")
	w("| window | opcode | injections | benign | detected | escaped |")
	w("|---|---|---|---|---|---|")
	e14Row := func(label, op string, t fault.Tally) {
		w("| %s | %s | %d | %d | %d | %d |", label, op, t.Runs(), t.Benign, t.Detected, t.Escaped)
	}
	for _, win := range r.e14 {
		label := fmt.Sprintf("%s, cycles [%d, %d)", win.name, win.rep.WindowStart, win.rep.WindowEnd)
		for _, ot := range win.rep.ByOp {
			e14Row(label, ot.Op.String(), ot.Tally)
			label = ""
		}
		e14Row("", "all", win.rep.Tally)
	}
	w("")
	w("**Escaped %d** of %d.", e14Escaped, e14Runs)
	w("")

	w("## E15 — ISA security (%d command scripts)", e15Scripts)
	w("")
	w("Random scripts of %d commands (write key, write point, start k·P,", e15Commands)
	w("start x-only, read result, read x, clear key) drive the")
	w("co-processor's MCU interface, each on a fresh device, key and point.")
	w("Every result, status, cycle count and error read back is searched")
	w("for the key's low 20 bytes.")
	w("")
	w("| operation | completed runs | distinct cycle counts |")
	w("|---|---|---|")
	for i, op := range []string{"k·P", "x-only k·P"} {
		var runs int
		var counts []int
		for c, n := range r.e15.cycles[i] {
			runs += n
			counts = append(counts, c)
		}
		sort.Ints(counts)
		w("| %s | %d | %d: %s cycles |", op, runs, len(counts), strings.Trim(fmt.Sprint(counts), "[]"))
	}
	w("")
	w("**Key-byte exposures: %d.** A zero key through the x-only path ends in", r.e15.exposures)
	w("status **%s**.", r.e15.zeroXOnly)
	w("")

	w("## E16 — PUF key storage")
	w("")
	w("Intra-distance %.1f%%, inter-distance %.1f%%, key stable over 25 power-ups: %v.",
		r.e16.intra*100, r.e16.inter*100, r.e16.stable)
	w("")

	w("## E17 — masked datapath vs higher-order attacks (%d traces/set)", e17TracesPerSet)
	w("")
	w("First-order Boolean masking (`masking: boolean1`) carries every")
	w("datapath word as two shares with fresh TRNG masks per trace; the")
	w("residual CSWAP imbalance is zeroed in this scenario (a control-path")
	w("leak masking cannot cover). The first-order moment goes flat while")
	w("the second-order (centered-product) statistics still convict —")
	w("masking buys traces, not immunity.")
	w("")
	w("| configuration | t-test order | max \\|t\\| | verdict |")
	w("|---|---|---|---|")
	w("| unmasked | 1 | %.2f | %s |", r.e17.unmasked1.MaxT, verdict(r.e17.unmasked1.Leaks))
	w("| masked | 1 | %.2f | %s |", r.e17.masked1.MaxT, verdict(r.e17.masked1.Leaks))
	w("| masked | 2 | %.2f | %s |", r.e17.masked2.MaxT, verdict(r.e17.masked2.Leaks))
	w("")
	foOutcome := "fails"
	if r.e17.firstOrder.Success() {
		foOutcome = "succeeded (!)"
	}
	maskDisclosure := "never (within 1000 traces)"
	if r.e17.centeredN > 0 {
		maskDisclosure = fmt.Sprintf("succeeds at %d traces", r.e17.centeredN)
	}
	w("| attack on the masked datapath | traces to disclosure |")
	w("|---|---|")
	w("| first-order CPA | %s at 1000 traces (bit accuracy %.2f) |", foOutcome, r.e17.firstOrder.BitAccuracy())
	w("| centered-product (2nd-order) CPA | %s |", maskDisclosure)
	w("")

	if len(mans) > 0 {
		writeManifestAppendix(w, mans)
	}

	w("---")
	w("Report generated in %s.", elapsed.Round(time.Millisecond))
	return b.Bytes()
}

// loadedManifest pairs a validated manifest with its source path.
type loadedManifest struct {
	path string
	m    *obs.Manifest
}

// loadManifests expands the comma-separated -manifests value (each
// entry a path or glob) and validates every file.
func loadManifests(spec string) ([]loadedManifest, error) {
	if spec == "" {
		return nil, nil
	}
	var paths []string
	for _, pat := range strings.Split(spec, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		matches, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("-manifests %q: %v", pat, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-manifests: %q matched no files", pat)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	out := make([]loadedManifest, 0, len(paths))
	for _, p := range paths {
		m, err := obs.ReadManifest(p)
		if err != nil {
			return nil, err
		}
		out = append(out, loadedManifest{path: p, m: m})
	}
	return out, nil
}

// writeManifestAppendix folds the validated run manifests into the
// report: one provenance row per run plus its metric snapshot.
func writeManifestAppendix(w func(string, ...interface{}), mans []loadedManifest) {
	w("## Appendix — instrumented run manifests")
	w("")
	w("Each row is one instrumented lab run (`-metrics out.json`); the")
	w("seed and flag set replay it bit-identically for any worker count.")
	w("")
	w("| run | tool | seed | git | go | GOMAXPROCS |")
	w("|---|---|---|---|---|---|")
	for _, lm := range mans {
		name := lm.m.Tool
		if lm.m.Subcommand != "" {
			name += " " + lm.m.Subcommand
		}
		w("| `%s` | %s | %d | `%s` | %s | %d |",
			filepath.Base(lm.path), name, lm.m.Seed, lm.m.GitSHA, lm.m.GoVersion, lm.m.GoMaxProcs)
	}
	w("")
	for _, lm := range mans {
		name := lm.m.Tool
		if lm.m.Subcommand != "" {
			name += " " + lm.m.Subcommand
		}
		w("### %s (`%s`)", name, filepath.Base(lm.path))
		w("")
		if len(lm.m.Flags) > 0 {
			var keys []string
			for k := range lm.m.Flags {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				if v := lm.m.Flags[k]; v != "" {
					parts = append(parts, fmt.Sprintf("-%s=%s", k, v))
				}
			}
			w("Flags: `%s`", strings.Join(parts, " "))
			w("")
		}
		w("| metric | value |")
		w("|---|---|")
		var ck []string
		for k := range lm.m.Metrics.Counters {
			ck = append(ck, k)
		}
		sort.Strings(ck)
		for _, k := range ck {
			w("| %s | %d |", k, lm.m.Metrics.Counters[k])
		}
		var gk []string
		for k := range lm.m.Metrics.Gauges {
			gk = append(gk, k)
		}
		sort.Strings(gk)
		for _, k := range gk {
			w("| %s | %.6g |", k, lm.m.Metrics.Gauges[k])
		}
		w("")
	}
}

func verdict(leaks bool) string {
	if leaks {
		return "LEAKS"
	}
	return "passes"
}
