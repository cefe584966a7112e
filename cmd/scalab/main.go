// Command scalab runs the side-channel evaluation workflow of the
// paper's Fig. 4 against the simulated co-processor:
//
//	scalab dpa    [-traces 20000] [-bits 6] [-rpc=true] [-known-masks=false] [-masking none] [-preprocess ""]
//	              [-workers 0] [-shards 0] [-lanes 8]
//	              [-checkpoint ck.msckpt] [-resume]
//	scalab spa    [-balanced=true] [-gating=false] [-profile 0] [-microcode ""] [-workers 0] [-shards 0] [-lanes 8]
//	scalab timing [-keys 1000]
//	scalab tvla   [-traces 500] [-rpc=true] [-early=false] [-order 1] [-masking none] [-workers 0] [-shards 0] [-lanes 8]
//	              [-checkpoint ck.msckpt] [-checkpoint-interval 1000] [-resume]
//	scalab leakmap [-traces 200] [-workers 0] [-shards 0] [-lanes 8]
//
// The dpa subcommand with default flags reproduces the §7 statement
// that 20 000 traces do not reveal a single key bit when randomized
// projective coordinates are enabled; with -rpc=false it finds the
// ~200-trace success point.
//
// -masking boolean1 enables the first-order Boolean masking
// countermeasure (design.MaskingBoolean1) and switches the lab into
// the datapath-leakage scenario: the chip's intrinsic noise floor
// instead of the oscilloscope floor, and the residual layout imbalance
// zeroed (it is a control-path leak that datapath masking cannot
// cover — its own countermeasure axis). Against a masked target the
// first-order statistics go flat; evaluate with -order 2 (second-order
// TVLA) and -preprocess centered-product (second-order CPA with
// Hamming-distance predictions) instead.
//
// spa -microcode compare runs the operation-flow SPA comparison of the
// scalar-multiplication microcodes: the shape classifier that strips
// the plain double-and-add bare sees a single block class against the
// Giraud–Verneuil atomic variant, which leaks only the block count
// (the scalar's Hamming weight).
//
// Acquisition campaigns fan out over the parallel campaign engine
// (-workers 0 selects GOMAXPROCS); results are bit-identical for any
// worker count, so -workers only changes wall-clock time. Campaign
// throughput (traces/s and simulated cycles/s) is printed after the
// dpa and tvla runs.
//
// -shards selects the reduction layout: 0 picks the engine default, a
// positive value fixes the per-shard accumulator count (1 is the
// serial in-order fold), and a negative value is refused. Results
// are bit-identical across worker counts at any fixed shard count;
// different shard counts reassociate the floating-point fold and so
// agree only to rounding (see internal/campaign). Campaign headers
// also report how many leading prologue cycles per trace the
// checkpoint/quiet-prefix acquisition planner removes from the
// evented pipeline.
//
// -lanes selects lane-batched acquisition: one decoded instruction
// stream retires this many traces per interpreter pass
// (coproc.LaneCPU), amortizing microcode decode and dispatch. Results
// are bit-identical at any lane count — like -workers, the flag only
// changes wall-clock time. The default is the measured saturation
// point (design.DefaultLanes); -lanes 1 runs the width-1 lane
// interpreter.
//
// The dpa and tvla campaigns are crash-safe: with -checkpoint the run
// writes durable accumulator snapshots (internal/store format) and
// once more on SIGINT/SIGTERM, which scalab treats as graceful
// cancellation rather than death. tvla writes one every
// -checkpoint-interval traces; dpa writes one after every campaign
// size its traces-to-success search evaluates, and takes no
// -checkpoint-interval. Rerunning
// the same command with -resume continues from the snapshot and
// produces the byte-identical final report an uninterrupted run would
// have printed; a -resume against a checkpoint from a different seed,
// design point, campaign kind or code revision is refused by name.
// Growing -traces between runs extends a completed one-shard tvla
// campaign (-early, or -shards 1) in a new process; a sharded
// campaign's checkpoint pins its budget.
//
// Every subcommand accepts -metrics out.json: the run then carries a
// live internal/obs registry through the acquisition stack and writes
// a provenance manifest (environment stamp, resolved flag set, metric
// snapshot) on success. Metrics observe, never perturb — results are
// bit-identical with or without the flag. cmd/reportgen folds
// manifests into REPORT.md tables.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"medsec/internal/campaign"
	"medsec/internal/cliutil"
	"medsec/internal/coproc"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/profiling"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/store"
	"medsec/internal/tabular"
	"medsec/internal/trace"
)

// main is the binary's single exit point: every subcommand returns an
// error instead of calling log.Fatal (which would skip deferred
// cleanup — profile stops, metric manifests, final checkpoints). The
// signal context turns SIGINT/SIGTERM into campaign cancellation, so
// a killed run unwinds through those same deferred writers.
func main() {
	log.SetFlags(0)
	log.SetPrefix("scalab: ")
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run executes one subcommand and writes its report to w and a
// campaign's progress line to progress.
func run(ctx context.Context, args []string, w, progress io.Writer) error {
	if len(args) < 1 {
		return usageError()
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "dpa":
		return dpaCmd(ctx, rest, w, progress)
	case "spa":
		return spaCmd(ctx, rest, w)
	case "timing":
		return timingCmd(rest, w)
	case "tvla":
		return tvlaCmd(ctx, rest, w, progress)
	case "leakmap":
		return leakmapCmd(ctx, rest, w)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: scalab <dpa|spa|timing|tvla|leakmap> [flags]")
}

// newTarget builds the lab's standard evaluation target through the
// design layer: the protected chip at the white-box noise floor, key
// derived from the experiment seed, trace schedule from seed+99. mut
// adjusts circuit knobs on the design point before the build. The
// resolved point is returned alongside the target — it is the
// provenance record checkpoint headers pin a campaign to.
func newTarget(rpc bool, seed uint64, mut func(*design.Point)) (*sca.Target, *ec.Curve, design.Point, error) {
	p := design.Defaults()
	p.RPC = rpc
	p.XOnly = true
	p.Seed = seed
	p.TRNGSeed = seed + 99
	p.NoiseSigma = design.LabNoiseSigma
	if mut != nil {
		mut(&p)
	}
	st, err := p.Build()
	if err != nil {
		return nil, nil, p, err
	}
	tgt, err := st.Target(st.DeviceKey(seed))
	if err != nil {
		return nil, nil, p, err
	}
	return tgt, st.Curve, p, nil
}

// workersFlag registers the shared -workers flag.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "acquisition workers (0 = GOMAXPROCS); any value gives bit-identical results")
}

// shardsFlag registers the shared -shards flag (reduction layout for
// the campaign engine).
func shardsFlag(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "reduction shards (0 = engine default, 1 = serial fold; must be >= 0); statistics agree across shard counts to rounding")
}

// checkShards refuses a negative -shards value.
func checkShards(shards int) error {
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 = engine default), got %d", shards)
	}
	return nil
}

// lanesFlag registers the shared -lanes flag (lane-batched
// acquisition width).
func lanesFlag(fs *flag.FlagSet) *int {
	return fs.Int("lanes", design.DefaultLanes, "traces per interpreter pass (1 = width-1 lane interpreter); any value gives bit-identical results")
}

// maskingFlag registers the shared -masking flag (datapath masking
// countermeasure).
func maskingFlag(fs *flag.FlagSet) *string {
	return fs.String("masking", design.MaskingNone,
		"datapath masking countermeasure (none or boolean1); boolean1 evaluates at the chip noise floor with the residual imbalance zeroed")
}

// applyMasking writes the -masking flag onto a design point. The
// masked scenario isolates datapath leakage: the oscilloscope noise
// floor would bury the mask-induced variance the second-order
// statistics estimate, and the residual CSWAP-select imbalance is a
// control-path leak Boolean masking cannot cover (power.Config's own
// countermeasure axis), so both move out of the way.
func applyMasking(p *design.Point, masking string) {
	p.Masking = masking
	if masking == design.MaskingBoolean1 {
		p.NoiseSigma = design.DefaultNoiseSigma
		p.ResidualImbalance = 0
	}
}

// metricsFlag registers the shared -metrics flag.
func metricsFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics", "", "write a run manifest (environment, flags, metric snapshot) to this JSON file")
}

// checkpointFlags registers the shared crash-safety flags of the
// long-campaign subcommands (dpa, tvla). Only tvla adds
// -checkpoint-interval: dpa's search checkpoints after every size.
func checkpointFlags(fs *flag.FlagSet) (path *string, resume *bool) {
	path = fs.String("checkpoint", "", "write durable campaign checkpoints to this file (atomic replace; final write on SIGINT/SIGTERM)")
	resume = fs.Bool("resume", false, "continue the campaign from the -checkpoint file when it exists")
	return path, resume
}

// newCheckpoint builds the campaign checkpoint config from the
// checkpoint flags (every is 0 for dpa, whose search checkpoints after
// each evaluated size), stamping the provenance header that chains the
// file to this exact campaign: tool, kind, seed, code revision and the
// full resolved design point. Returns nil (checkpointing off) when no
// -checkpoint path was given.
func newCheckpoint(path string, every int, resume bool, kind string, seed uint64, pt design.Point) (*sca.CampaignCheckpoint, error) {
	if path == "" {
		if resume {
			return nil, errors.New("-resume needs -checkpoint")
		}
		return nil, nil
	}
	pj, err := json.Marshal(pt)
	if err != nil {
		return nil, err
	}
	return &sca.CampaignCheckpoint{
		Path:   path,
		Every:  every,
		Resume: resume,
		Header: store.Header{
			Tool:   "scalab",
			Kind:   kind,
			Seed:   seed,
			GitSHA: obs.GitSHA(),
			Point:  pj,
		},
	}, nil
}

// interruptedHint rewrites the engine's cancellation sentinel into an
// actionable message: where the final checkpoint landed and how to
// continue. Non-interrupt errors pass through untouched.
func interruptedHint(err error, ck *sca.CampaignCheckpoint) error {
	if err == nil || !errors.Is(err, campaign.ErrInterrupted) {
		return err
	}
	if ck == nil {
		return fmt.Errorf("%w (rerun with -checkpoint to make campaigns resumable)", err)
	}
	return fmt.Errorf("%w: checkpoint written to %s; rerun with -resume to continue", err, ck.Path)
}

// newRegistry returns a live registry when -metrics requested a
// manifest, nil otherwise (the zero-overhead default: every obs method
// on a nil registry is an allocation-free no-op).
func newRegistry(path string) *obs.Registry {
	if path == "" {
		return nil
	}
	return obs.New()
}

// writeManifest stamps the sample buffer pool's hit-rate gauge and
// writes the run's provenance manifest. A no-op when -metrics was not
// given.
func writeManifest(path, sub string, seed uint64, fs *flag.FlagSet, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	reg.Gauge("trace_sample_pool_hit_rate").Set(trace.SamplePoolStats().HitRate())
	return obs.NewManifest("scalab", sub, seed, fs, reg).Write(path)
}

// profileFlags registers the shared -cpuprofile/-memprofile flags.
// Pair with profiling.Start right after fs.Parse.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return cpu, mem
}

// meter wires a progress line, written to progress, onto a target and
// accounts campaign throughput: acquired trace count (via the engine's
// progress callback) and wall-clock time.
type meter struct {
	start    time.Time
	acquired int
	reg      *obs.Registry
	progress io.Writer
}

func newMeter(tgt *sca.Target, reg *obs.Registry, progress io.Writer) *meter {
	m := &meter{start: time.Now(), reg: reg, progress: progress}
	tgt.Progress = func(done int) {
		m.acquired = done
		if done%200 == 0 {
			fmt.Fprintf(progress, "\racquired %d traces...", done)
		}
	}
	return m
}

// report prints campaign throughput: traces/s and simulated cycles/s
// (cyclesPerTrace is the acquisition window end — every trace
// simulates the ladder from cycle 0 through the window). With a live
// registry the figures also land in the manifest as gauges.
func (m *meter) report(w io.Writer, cyclesPerTrace int) {
	fmt.Fprint(m.progress, "\r\033[K")
	el := time.Since(m.start)
	if m.acquired == 0 || el <= 0 {
		return
	}
	sec := el.Seconds()
	m.reg.Gauge("traces_per_sec").Set(float64(m.acquired) / sec)
	m.reg.Gauge("simulated_cycles_per_sec").Set(float64(m.acquired) * float64(cyclesPerTrace) / sec)
	fmt.Fprintf(w, "\ncampaign throughput: %d traces in %.2fs (%.0f traces/s, %.2e simulated cycles/s)\n",
		m.acquired, sec, float64(m.acquired)/sec, float64(m.acquired)*float64(cyclesPerTrace)/sec)
}

func dpaCmd(ctx context.Context, args []string, w, progress io.Writer) (err error) {
	fs := flag.NewFlagSet("dpa", flag.ContinueOnError)
	traces := fs.Int("traces", 20000, "maximum campaign size")
	bits := fs.Int("bits", 6, "key bits to recover")
	rpc := fs.Bool("rpc", true, "randomized projective coordinates enabled")
	known := fs.Bool("known-masks", false, "white-box: attacker knows the RPC randomness")
	preprocess := fs.String("preprocess", sca.PreprocessNone,
		"trace preprocessing before correlation (\"\" = raw first-order, centered-product = second-order against masked targets)")
	masking := maskingFlag(fs)
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := workersFlag(fs)
	shards := shardsFlag(fs)
	lanes := lanesFlag(fs)
	metrics := metricsFlag(fs)
	ckPath, ckResume := checkpointFlags(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	reg := newRegistry(*metrics)
	// Deferred so an interrupted campaign still records its manifest —
	// the run happened and consumed its budget even if it was cut
	// short. The campaign's own error wins over a manifest I/O error.
	defer func() {
		if werr := writeManifest(*metrics, "dpa", *seed, fs, reg); err == nil {
			err = werr
		}
	}()
	tgt, _, pt, err := newTarget(*rpc, *seed, func(p *design.Point) {
		applyMasking(p, *masking)
	})
	if err != nil {
		return err
	}
	tgt.Workers = *workers
	tgt.Shards = *shards
	tgt.Lanes = *lanes
	tgt.Metrics = reg
	tgt.Ctx = ctx
	ck, err := newCheckpoint(*ckPath, 0, *ckResume, "dpa", *seed, pt)
	if err != nil {
		return err
	}
	tgt.Ckpt = ck
	sizes := []int{}
	for _, s := range []int{25, 50, 100, 150, 200, 300, 450, 700, 1000, 2000, 4000, 8000, 12000, 20000} {
		if s <= *traces {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != *traces {
		sizes = append(sizes, *traces)
	}
	dpaFirstIter := 162 - len(sca.DefaultKnownPrefix())
	fmt.Fprintf(w, "DPA/CPA: RPC=%v known-masks=%v masking=%s preprocess=%q, recovering %d bits, up to %d traces, seed=%d, prologue cycles skipped per trace=%d\n",
		*rpc, *known, *masking, *preprocess, *bits, *traces, *seed,
		tgt.NewCampaign(dpaFirstIter, dpaFirstIter-*bits+1).PrologueCyclesSkipped())
	m := newMeter(tgt, reg, progress)
	n, res, err := sca.TracesToSuccess(tgt, sizes, *bits,
		sca.CPAOptions{KnownMasks: *known, Preprocess: *preprocess}, rng.NewDRBG(*seed+5).Uint64)
	if err != nil {
		return interruptedHint(err, ck)
	}
	t := tabular.New("outcome", "value")
	if n >= 0 {
		t.Row("attack", "SUCCEEDS")
		t.Row("traces to full recovery", n)
	} else {
		t.Row("attack", "FAILS")
		t.Row("traces tried", *traces)
	}
	t.Row("recovered bits", fmt.Sprint(res.Recovered))
	t.Row("true bits", fmt.Sprint(res.True))
	t.Row("bit accuracy", fmt.Sprintf("%.2f", res.BitAccuracy()))
	t.Render(w)
	_, end := tgt.Window(dpaFirstIter, dpaFirstIter-*bits+1)
	m.report(w, end)
	return nil
}

func spaCmd(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("spa", flag.ContinueOnError)
	balanced := fs.Bool("balanced", true, "balanced mux control encoding (Fig. 3)")
	gating := fs.Bool("gating", false, "data-dependent clock gating")
	profile := fs.Int("profile", 0, "profiling traces to average (0 = single trace)")
	microcode := fs.String("microcode", "", "\"compare\" runs the operation-flow SPA comparison of the scalar-mult microcodes instead of the power SPA")
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := workersFlag(fs)
	shards := shardsFlag(fs)
	lanes := lanesFlag(fs)
	metrics := metricsFlag(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	reg := newRegistry(*metrics)
	defer func() {
		if werr := writeManifest(*metrics, "spa", *seed, fs, reg); err == nil {
			err = werr
		}
	}()
	if *microcode != "" {
		if *microcode != "compare" {
			return fmt.Errorf("-microcode %q unsupported (want \"compare\" or empty)", *microcode)
		}
		return microcodeSPA(w, *seed, reg)
	}
	tgt, curve, _, err := newTarget(true, *seed, func(p *design.Point) {
		p.BalancedMux = *balanced
		p.DataDepClockGating = *gating
		p.NoiseSigma = design.DefaultNoiseSigma
	})
	if err != nil {
		return err
	}
	tgt.Workers = *workers
	tgt.Shards = *shards
	tgt.Lanes = *lanes
	tgt.Metrics = reg
	tgt.Ctx = ctx
	// SPA averages the full ladder, so the only prologue the planner
	// can remove is the short pre-ladder setup (load/format
	// instructions before iteration 162).
	fmt.Fprintf(w, "SPA: seed=%d, prologue cycles skipped per trace=%d\n",
		*seed, tgt.NewCampaign(162, 0).PrologueCyclesSkipped())
	var res *sca.SPAResult
	if *profile > 1 {
		res, err = sca.SPAProfiled(tgt, curve.Generator(), *profile)
	} else {
		res, err = sca.SPA(tgt, curve.Generator(), 0)
	}
	if err != nil {
		return err
	}
	t := tabular.New("metric", "value")
	t.Row("balanced mux encoding", *balanced)
	t.Row("data-dependent clock gating", *gating)
	t.Row("profiling traces", *profile)
	t.Row("classified bits", len(res.Recovered))
	t.Row("bit accuracy", fmt.Sprintf("%.3f", res.Accuracy()))
	t.Row("cluster separation (sigma)", fmt.Sprintf("%.2f", res.MeanAbsFeatureGap()))
	t.Render(w)
	return nil
}

// microcodeSPA runs the operation-flow SPA comparison of the
// scalar-multiplication microcodes for the seed-derived device key:
// the shape classifier (coproc.ShapeClasses) and the block-length key
// reader (coproc.DoubleAndAddKeyFromShape) against the plain
// double-and-add, the Giraud–Verneuil atomic repair, and the ladder.
func microcodeSPA(w io.Writer, seed uint64, reg *obs.Registry) error {
	st, err := design.Defaults().Build()
	if err != nil {
		return err
	}
	key := st.DeviceKey(seed)
	top := key.BitLen() - 1
	trueBits := make([]uint, 0, top)
	hw := 1 // the leading bit
	for i := top - 1; i >= 0; i-- {
		trueBits = append(trueBits, key.Bit(i))
		hw += int(key.Bit(i))
	}
	distinct := func(classes []int) int {
		n := 0
		for _, c := range classes {
			if c+1 > n {
				n = c + 1
			}
		}
		return n
	}

	t := tabular.New("microcode", "blocks", "shape classes", "single-trace SPA outcome")

	ladder := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	lc := coproc.ShapeClasses(ladder)
	t.Row(design.MicrocodeLadder, len(lc), distinct(lc),
		"operation flow is key-independent by construction")

	da, err := coproc.BuildDoubleAndAddProgram(key)
	if err != nil {
		return err
	}
	dac := coproc.ShapeClasses(da)
	rec := coproc.DoubleAndAddKeyFromShape(da, st.Timing)
	correct := 0
	for i := range rec {
		if i < len(trueBits) && rec[i] == trueBits[i] {
			correct++
		}
	}
	t.Row(design.MicrocodeDoubleAndAdd, len(dac), distinct(dac),
		fmt.Sprintf("%d/%d key bits read from block shapes", correct, len(trueBits)))

	atomic, err := coproc.BuildAtomicProgram(key)
	if err != nil {
		return err
	}
	atc := coproc.ShapeClasses(atomic)
	outcome := fmt.Sprintf("0/%d key bits (indistinguishable blocks); block count still leaks HW(k)=%d",
		len(trueBits), hw)
	if coproc.DoubleAndAddKeyFromShape(atomic, st.Timing) != nil {
		outcome = "UNEXPECTED: block-length attack recovered bits"
	}
	t.Row(design.MicrocodeAtomic, len(atc), distinct(atc), outcome)

	fmt.Fprintf(w, "operation-flow SPA: shape classification of the scalar-mult microcodes, seed=%d, %d key bits processed\n\n",
		seed, len(trueBits))
	t.Render(w)

	reg.Gauge("spa_shape_classes_ladder").Set(float64(distinct(lc)))
	reg.Gauge("spa_shape_classes_double_and_add").Set(float64(distinct(dac)))
	reg.Gauge("spa_shape_classes_atomic").Set(float64(distinct(atc)))
	reg.Gauge("spa_shape_bits_recovered_double_and_add").Set(float64(correct))
	reg.Gauge("spa_atomic_blocks").Set(float64(len(atc)))
	return nil
}

func timingCmd(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("timing", flag.ContinueOnError)
	keys := fs.Int("keys", 1000, "random keys to measure")
	seed := fs.Uint64("seed", 1, "experiment seed")
	// No -shards or -lanes: the timing attack measures whole-ladder
	// cycle counts without the campaign engine, so there is no fold to
	// shard and no trace stream to lane-batch.
	metrics := metricsFlag(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	reg := newRegistry(*metrics)
	defer func() {
		if werr := writeManifest(*metrics, "timing", *seed, fs, reg); err == nil {
			err = werr
		}
	}()
	st, err := design.Defaults().Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "timing attack: %d keys, seed=%d\n", *keys, *seed)
	rep := sca.TimingAttack(st.Curve, st.Timing, *keys, rng.NewDRBG(*seed).Uint64)
	reg.Counter("timing_keys_measured").Add(int64(*keys))
	reg.Gauge("timing_ladder_cycles").Set(float64(rep.LadderCycles))
	t := tabular.New("implementation", "cycle behaviour", "leak")
	t.Row("Montgomery ladder (chip)",
		fmt.Sprintf("constant %d cycles (variance %.0f)", rep.LadderCycles, rep.LadderVariance),
		"none")
	t.Row("double-and-add baseline",
		fmt.Sprintf("%d..%d cycles", rep.DAMinCycles, rep.DAMaxCycles),
		fmt.Sprintf("latency/HW corr %.3f, HW error %.2f bits", rep.DAHWCorrelation, rep.DARecoveredHWError))
	t.Render(w)
	return nil
}

func leakmapCmd(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("leakmap", flag.ContinueOnError)
	traces := fs.Int("traces", 200, "traces per set")
	balanced := fs.Bool("balanced", true, "balanced mux control encoding")
	gating := fs.Bool("gating", false, "data-dependent clock gating")
	residual := fs.Float64("residual", design.DefaultResidualImbalance, "residual layout imbalance")
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := workersFlag(fs)
	shards := shardsFlag(fs)
	lanes := lanesFlag(fs)
	metrics := metricsFlag(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	reg := newRegistry(*metrics)
	defer func() {
		if werr := writeManifest(*metrics, "leakmap", *seed, fs, reg); err == nil {
			err = werr
		}
	}()
	tgt, curve, _, err := newTarget(true, *seed, func(p *design.Point) {
		p.BalancedMux = *balanced
		p.DataDepClockGating = *gating
		p.ResidualImbalance = *residual
		p.NoiseSigma = 0.05
	})
	if err != nil {
		return err
	}
	tgt.Workers = *workers
	tgt.Shards = *shards
	tgt.Lanes = *lanes
	tgt.Metrics = reg
	tgt.Ctx = ctx
	src := rng.NewDRBG(*seed + 3).Uint64
	m, err := sca.LeakageMap(tgt, sca.FixedPoint(curve), *traces, 160, 157,
		func() modn.Scalar { return sca.AlgorithmOneScalar(curve, src) })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "leakage map: seed=%d, %d cycles assessed, max |t| = %.2f, threshold %.1f, prologue cycles skipped per trace=%d\n\n",
		*seed, m.Samples, m.MaxT, m.Threshold,
		tgt.NewCampaign(160, 157).PrologueCyclesSkipped())
	if !m.Leaks() {
		fmt.Fprintln(w, "no significant key-dependent leakage located")
		return nil
	}
	t := tabular.New("rank", "cycle", "|t|", "instruction", "iteration", "key bit")
	for i, p := range m.Points {
		if i >= 10 {
			break
		}
		tv := p.TStat
		if tv < 0 {
			tv = -tv
		}
		t.Row(i+1, p.Cycle, fmt.Sprintf("%.1f", tv), p.Op.String(), p.Iteration, p.KeyBit)
	}
	t.Render(w)
	fmt.Fprintln(w, "\nby circuit block:")
	byOp := m.ByOp()
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(w, "  %-6s %d leaky cycles\n", op, byOp[op])
	}
	return nil
}

func tvlaCmd(ctx context.Context, args []string, w, progress io.Writer) (err error) {
	fs := flag.NewFlagSet("tvla", flag.ContinueOnError)
	traces := fs.Int("traces", 500, "traces per set")
	rpc := fs.Bool("rpc", true, "randomized projective coordinates enabled")
	early := fs.Bool("early", false, "stop as soon as |t| crosses the threshold")
	order := fs.Int("order", 1, "statistical order of the t-test (1 = Welch on samples, 2 = centered-product against masked targets)")
	masking := maskingFlag(fs)
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := workersFlag(fs)
	shards := shardsFlag(fs)
	lanes := lanesFlag(fs)
	metrics := metricsFlag(fs)
	ckPath, ckResume := checkpointFlags(fs)
	ckEvery := fs.Int("checkpoint-interval", design.DefaultCheckpointInterval, "acquired traces between periodic checkpoint writes")
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stop()

	reg := newRegistry(*metrics)
	defer func() {
		if werr := writeManifest(*metrics, "tvla", *seed, fs, reg); err == nil {
			err = werr
		}
	}()
	if *order != 1 && *order != 2 {
		return fmt.Errorf("-order %d unsupported (want 1 or 2)", *order)
	}
	tgt, curve, pt, err := newTarget(*rpc, *seed, func(p *design.Point) {
		applyMasking(p, *masking)
	})
	if err != nil {
		return err
	}
	tgt.Workers = *workers
	tgt.Shards = *shards
	tgt.Lanes = *lanes
	tgt.Metrics = reg
	tgt.Ctx = ctx
	// The early-stop variant folds serially and stops at a different
	// watermark, so its checkpoints are a distinct kind: a -resume must
	// replay the same campaign flavor.
	// The statistical order is likewise part of the kind (on top of the
	// accumulators' own welch/welch2 blob namespacing).
	kind := "tvla"
	if *order == 2 {
		kind = "tvla2"
	}
	if *early {
		kind += "-until"
	}
	ck, err := newCheckpoint(*ckPath, *ckEvery, *ckResume, kind, *seed, pt)
	if err != nil {
		return err
	}
	tgt.Ckpt = ck
	src := rng.NewDRBG(*seed + 9).Uint64
	randKey := func() modn.Scalar { return sca.AlgorithmOneScalar(curve, src) }
	m := newMeter(tgt, reg, progress)
	var res *sca.TVLAResult
	switch {
	case *order == 2 && *early:
		res, err = sca.TVLA2Until(tgt, sca.FixedPoint(curve), *traces, 10, 160, 157, randKey)
	case *order == 2:
		res, err = sca.TVLA2(tgt, sca.FixedPoint(curve), *traces, 160, 157, randKey)
	case *early:
		res, err = sca.TVLAUntil(tgt, sca.FixedPoint(curve), *traces, 10, 160, 157, randKey)
	default:
		res, err = sca.TVLA(tgt, sca.FixedPoint(curve), *traces, 160, 157, randKey)
	}
	if err != nil {
		return interruptedHint(err, ck)
	}
	reg.Gauge("sca_tvla_order").Set(float64(res.Order))
	t := tabular.New("metric", "value")
	t.Row("RPC", *rpc)
	t.Row("masking", *masking)
	t.Row("t-test order", res.Order)
	t.Row("seed", *seed)
	t.Row("traces per set", res.TracesPerSet)
	t.Row("prologue cycles skipped/trace", res.PrologueCyclesSkipped)
	if res.EarlyStopped {
		t.Row("early stop", "yes (threshold crossed)")
	}
	t.Row("max |t|", fmt.Sprintf("%.2f", res.MaxT))
	t.Row("threshold", sca.TVLAThreshold)
	t.Row("samples over threshold", res.LeakyPoints)
	verdict := "PASS (no evidence of leakage)"
	if res.Leaks {
		verdict = "FAIL (leakage detected)"
	}
	t.Row("verdict", verdict)
	t.Render(w)
	m.report(w, res.CyclesPerTrace)
	return nil
}
