package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"medsec/internal/design"
	"medsec/internal/fleet"
	"medsec/internal/modn"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// scale sizes the workloads: paperScale is what the benchmark measures,
// smaller scales serve the tests.
type scale struct {
	// tvlaPerSet is the tvla_rpc fixed/random set size.
	tvlaPerSet int
	// dpaSizes is the dpa_rpc campaign size ladder; the CPA runs on
	// every prefix.
	dpaSizes []int
	// tvla2PerSet is the tvla2_masked set size.
	tvla2PerSet int
	// fleetDevices is the fleet_hospital population.
	fleetDevices int
}

var paperScale = scale{
	tvlaPerSet: 10000,
	// cmd/scalab dpa's ladder up to the paper's 20 000 traces.
	dpaSizes:     []int{25, 50, 100, 150, 200, 300, 450, 700, 1000, 2000, 4000, 8000, 12000, 20000},
	tvla2PerSet:  2000,
	fleetDevices: 800,
}

// The paper's evaluation windows: TVLA over ladder iterations 160..157
// (cmd/scalab tvla), and the CPA over the six bits below the
// Algorithm 1 prefix, iterations 160..155 (cmd/scalab dpa -bits 6).
const (
	tvlaFirst, tvlaLast = 160, 157
	dpaBits             = 6
)

func dpaWindow() (first, last int) {
	first = 162 - len(sca.DefaultKnownPrefix())
	return first, first - dpaBits + 1
}

// env is what a workload is built from: the inputs come from seed
// alone, the rest only shapes how the work executes.
type env struct {
	seed    uint64
	workers int
	scale   scale
}

// work counts what one repetition asked of each layer; the ledger
// multiplies it by the probed unit costs.
type work struct {
	laneCycles       int // simulated cycles, summed over traces (unmasked datapath)
	maskedLaneCycles int // the same on the masked datapath
	sinkSamples      int // evented cycles delivered to the sample sink
	welchSamples     int // samples folded into the first-order Welch test
	welch2Samples    int // samples folded into the second-order Welch test
	points           int // random base points drawn
	cpaTraces        int // traces the CPA analysed, summed over the ladder
	devices          int // fleet devices (one key generation, two cache specializations each)
	sessions         int // authentication sessions
}

// repOut is one repetition's result.
type repOut struct {
	items   int    // traces acquired or sessions run
	digest  string // hash of the result the paper's verdict rests on
	verdict error  // nil when the paper's verdict holds
	note    string
	work    work
}

// instance is a set-up workload: the stack and target the repetitions
// and the layer probes use.
type instance struct {
	stack  *design.Stack
	target *sca.Target
	// first/last is the ladder-iteration window the layer probes
	// simulate: the workload's own, or the TVLA window for the fleet.
	first, last int
	rep         func(o *observer) (repOut, error)
}

type workload struct {
	name, why string
	unit      string // what throughput counts
	setup     func(e env, o *observer) (*instance, error)
}

var workloads = []*workload{
	{
		name: "tvla_rpc",
		why:  "first-order TVLA on the RPC target at 10 000 traces/set: lane interpreter, power model, noise and sample sink, folded in O(1) memory",
		unit: "traces",
		setup: func(e env, o *observer) (*instance, error) {
			return setupTVLA(e, o, 1, e.scale.tvlaPerSet, nil)
		},
	},
	{
		name:  "dpa_rpc",
		why:   "the 20 000-trace CPA against RPC over the size ladder: the tvla_rpc layers used retain-then-analyse, with random points and serial CPA",
		unit:  "traces",
		setup: setupDPA,
	},
	{
		name: "tvla2_masked",
		why:  "second-order TVLA on the Boolean-masked target at 2 000 traces/set: mask-refresh DRBG and the OnlineWelch2 fold",
		unit: "traces",
		setup: func(e env, o *observer) (*instance, error) {
			return setupTVLA(e, o, 2, e.scale.tvla2PerSet, func(p *design.Point) {
				// cmd/scalab's masked scenario: non-RPC, chip noise floor,
				// no residual control-path imbalance (masking cannot cover it).
				p.RPC = false
				p.Masking = design.MaskingBoolean1
				p.NoiseSigma = design.DefaultNoiseSigma
				p.ResidualImbalance = 0
			})
		},
	},
	{
		name:  "fleet_hospital",
		why:   "800-device hospital fleet, 4 000 sessions: software ec ladders, protocol, lossy-link ARQ and the design cache; the coprocessor is idle",
		unit:  "sessions",
		setup: setupFleet,
	},
}

func workloadByName(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// labTarget builds cmd/scalab's evaluation target through the design
// layer: the protected chip at the white-box noise floor, x-only
// ladder, device key from the seed, trace schedule from seed+99. mut
// adjusts the point before the build.
func labTarget(e env, o *observer, mut func(*design.Point)) (*design.Stack, *sca.Target, error) {
	p := design.Defaults()
	p.XOnly = true
	p.Seed = e.seed
	p.TRNGSeed = e.seed + 99
	p.NoiseSigma = design.LabNoiseSigma
	if mut != nil {
		mut(&p)
	}
	return buildTarget(p, e, o)
}

func buildTarget(p design.Point, e env, o *observer) (*design.Stack, *sca.Target, error) {
	id := o.begin("design.Point.Build", kindSetup)
	st, err := p.Build()
	o.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = o.begin("design.Stack.Target", kindSetup)
	tgt, err := st.Target(st.DeviceKey(e.seed))
	o.end(id)
	if err != nil {
		return nil, nil, err
	}
	tgt.Workers = e.workers
	return st, tgt, nil
}

// randKeys is the random-set key stream of cmd/scalab tvla: Algorithm 1
// scalars from seed+9, restarted per campaign so every repetition does
// the same work.
func randKeys(tgt *sca.Target, seed uint64) func() modn.Scalar {
	src := rng.NewDRBG(seed + 9).Uint64
	return func() modn.Scalar { return sca.AlgorithmOneScalar(tgt.Curve, src) }
}

// setupTVLA builds a fixed-vs-random TVLA workload of the given order.
// The first-order run must pass on the RPC target; the second-order run
// must convict the masked one.
func setupTVLA(e env, o *observer, order, perSet int, mut func(*design.Point)) (*instance, error) {
	st, tgt, err := labTarget(e, o, mut)
	if err != nil {
		return nil, err
	}
	masked := st.Masked()
	tvla, name := sca.TVLA, "sca.TVLA"
	if order == 2 {
		tvla, name = sca.TVLA2, "sca.TVLA2"
	}
	campaign := func(o *observer, n int) (*sca.TVLAResult, error) {
		tgt.Metrics = o.registry()
		id := o.begin(name, kindAcquire)
		defer o.end(id)
		return tvla(tgt, sca.FixedPoint(tgt.Curve), n, tvlaFirst, tvlaLast, randKeys(tgt, e.seed))
	}
	id := o.begin("warmup", kindSetup)
	_, err = campaign(o, 10) // the smallest TVLA the library accepts
	o.end(id)
	if err != nil {
		return nil, err
	}
	inst := &instance{stack: st, target: tgt, first: tvlaFirst, last: tvlaLast}
	inst.rep = func(o *observer) (repOut, error) {
		res, err := campaign(o, perSet)
		if err != nil {
			return repOut{}, err
		}
		id := o.begin("digest", kindAnalysis)
		defer o.end(id)
		traces := 2 * res.TracesPerSet
		start, end := tgt.Window(tvlaFirst, tvlaLast)
		out := repOut{
			items:  traces,
			digest: hashHex(floatBytes(res.TCurve)),
			note:   fmt.Sprintf("order-%d max|t| %.2f, %d of %d samples over %.1f", order, res.MaxT, res.LeakyPoints, len(res.TCurve), sca.TVLAThreshold),
			work: work{
				sinkSamples: traces * (end - res.PrologueCyclesSkipped),
			},
		}
		if masked {
			out.work.maskedLaneCycles = traces * end
		} else {
			out.work.laneCycles = traces * end
		}
		if order == 2 {
			out.work.welch2Samples = traces * (end - start)
		} else {
			out.work.welchSamples = traces * (end - start)
		}
		switch leaks := res.LeakyPoints >= minLeakyPoints; {
		case order == 1 && leaks:
			out.verdict = fmt.Errorf("first-order TVLA on the RPC target leaks: %d samples over %.1f, max|t| %.2f",
				res.LeakyPoints, sca.TVLAThreshold, res.MaxT)
		case order == 2 && !leaks:
			out.verdict = fmt.Errorf("second-order TVLA misses the masked target's leak: %d samples over %.1f, max|t| %.2f",
				res.LeakyPoints, sca.TVLAThreshold, res.MaxT)
		}
		return out, nil
	}
	return inst, nil
}

// minLeakyPoints is how many window samples must cross |t| = 4.5 before
// the benchmark calls a TVLA a leak. The window holds 1 924 samples, so
// a target that does not leak expects 1924·P(|t| > 4.5) ≈ 0.013
// crossings: one crossing is chance for about one seed in 80 (seeds
// 1–16 of tvla_rpc reach max|t| 3.1–4.3), two for about one in 12 000.
// A real leak crosses at many samples.
const minLeakyPoints = 2

// setupDPA builds the §7 headline: a CPA campaign against the RPC
// target grown through the whole size ladder with ExtendCampaign, the
// attack run on every prefix. It never stops early, so its work does
// not depend on when a chance guess happens to be right — on a failing
// attack this is the work sca.TracesToSuccess does.
func setupDPA(e env, o *observer) (*instance, error) {
	st, tgt, err := labTarget(e, o, nil)
	if err != nil {
		return nil, err
	}
	first, last := dpaWindow()
	opt := sca.CPAOptions{Bits: dpaBits}
	ladder := func(o *observer, sizes []int) (*sca.Campaign, [][]byte, *sca.CPAResult, error) {
		tgt.Metrics = o.registry()
		camp := tgt.NewCampaign(first, last)
		points := rng.NewDRBG(e.seed + 5).Uint64
		var results [][]byte
		var res *sca.CPAResult
		for _, n := range sizes {
			id := o.begin("sca.ExtendCampaign", kindAcquire)
			err := tgt.ExtendCampaign(camp, n, points)
			o.end(id)
			if err != nil {
				return nil, nil, nil, err
			}
			id = o.begin("sca.CPA", kindAnalysis)
			res, err = sca.CPA(camp.Prefix(n), opt)
			o.end(id)
			if err != nil {
				return nil, nil, nil, err
			}
			results = append(results, cpaBytes(n, res))
		}
		return camp, results, res, nil
	}
	id := o.begin("warmup", kindSetup)
	_, _, _, err = ladder(o, e.scale.dpaSizes[:1])
	o.end(id)
	if err != nil {
		return nil, err
	}
	inst := &instance{stack: st, target: tgt, first: first, last: last}
	inst.rep = func(o *observer) (repOut, error) {
		camp, results, res, err := ladder(o, e.scale.dpaSizes)
		if err != nil {
			return repOut{}, err
		}
		id := o.begin("digest", kindAnalysis)
		defer o.end(id)
		n := camp.Set.Len()
		_, end := tgt.Window(first, last)
		analysed := 0
		for _, s := range e.scale.dpaSizes {
			analysed += s
		}
		out := repOut{
			items:  n,
			digest: hashHex(results...),
			note:   fmt.Sprintf("%d/%d bits at %d traces, best margin %.4f", res.CorrectBits(), dpaBits, n, cpaMargin(res)),
			work: work{
				laneCycles:  n * end,
				sinkSamples: n * (end - camp.PrologueCyclesSkipped()),
				points:      n,
				cpaTraces:   analysed,
			},
		}
		out.verdict = dpaVerdict(res, n)
		return out, nil
	}
	return inst, nil
}

// cpaMargin is the largest winning-minus-losing mean |rho| over the
// attacked bits: how clearly the best-decided bit was decided.
func cpaMargin(res *sca.CPAResult) float64 {
	m := 0.0
	for _, s := range res.Scores {
		m = math.Max(m, s[0]-s[1])
	}
	return m
}

// dpaVerdict checks §7's claim that the CPA fails against RPC with
// secret randomness. A six-bit guess is right by chance once in 64
// keys, so all bits right counts as a break only when some bit was also
// decided by a margin beyond chance: 5/sqrt(n), far above the ~0.3/sqrt(n)
// spread of a difference of mean |rho| between two unrelated guesses.
func dpaVerdict(res *sca.CPAResult, n int) error {
	if res.CorrectBits() < len(res.Recovered) {
		return nil
	}
	if m, limit := cpaMargin(res), 5/math.Sqrt(float64(n)); m > limit {
		return fmt.Errorf("CPA breaks RPC: all %d bits at %d traces, margin %.4f > %.4f", len(res.Recovered), n, m, limit)
	}
	return nil
}

// cpaBytes serializes one prefix's CPA outcome for the digest.
func cpaBytes(n int, res *sca.CPAResult) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for i, bit := range res.Recovered {
		b = append(b, byte(bit))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Scores[i][0]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Scores[i][1]))
	}
	return b
}

// setupFleet builds fleet.HospitalFleet at the sweep loss with the
// seed as the fleet's master seed.
func setupFleet(e env, o *observer) (*instance, error) {
	hospital := func(devices int) fleet.Config {
		cfg := fleet.HospitalFleet(devices, design.DefaultSweepLoss)
		cfg.Seed = e.seed
		return cfg
	}
	run := func(o *observer, cfg fleet.Config) (*fleet.Report, error) {
		id := o.begin("fleet.Run", kindAcquire)
		defer o.end(id)
		return fleet.Run(cfg, fleet.RunOptions{Workers: e.workers, Metrics: o.registry()})
	}
	id := o.begin("warmup", kindSetup)
	_, err := run(o, hospital(4)) // one device per cohort
	o.end(id)
	if err != nil {
		return nil, err
	}
	cfg := hospital(e.scale.fleetDevices)
	// The layer probes time the first cohort's stack: the pacemaker
	// point every session of the largest cohort specializes.
	p := cfg.Cohorts[0].Point
	p.Seed, p.TRNGSeed = e.seed, e.seed
	st, tgt, err := buildTarget(p, e, o)
	if err != nil {
		return nil, err
	}
	inst := &instance{stack: st, target: tgt, first: tvlaFirst, last: tvlaLast}
	inst.rep = func(o *observer) (repOut, error) {
		rep, err := run(o, cfg)
		if err != nil {
			return repOut{}, err
		}
		id := o.begin("fleet.Report.Render", kindAnalysis)
		defer o.end(id)
		text := rep.Render()
		var sessions int64
		for _, c := range rep.Accum.Cohorts {
			sessions += c.Sessions + c.StormSessions
		}
		devices := cfg.TotalDevices()
		out := repOut{
			items:  int(sessions),
			digest: hashHex([]byte(text)),
			note:   fmt.Sprintf("%d devices, %d sessions, cache hit rate %.4f", devices, sessions, rep.CacheStats.HitRate()),
			work:   work{devices: devices, sessions: int(sessions)},
		}
		want := devices * (cfg.SessionsPerDevice + cfg.Storm.Sessions)
		switch {
		case int(sessions) != want:
			out.verdict = fmt.Errorf("fleet report accounts for %d sessions, want %d", sessions, want)
		case !strings.HasPrefix(text, fmt.Sprintf("fleet: %d devices", devices)):
			out.verdict = fmt.Errorf("fleet report does not render its header: %.40q", text)
		}
		return out, nil
	}
	return inst, nil
}

// hashHex is the hex SHA-256 of the concatenated chunks.
func hashHex(chunks ...[]byte) string {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// floatBytes serializes a float vector bit for bit.
func floatBytes(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}
