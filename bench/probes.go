package main

import (
	"errors"
	"fmt"
	"time"

	"medsec/internal/coproc"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/link"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/power"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/trace"
)

// probeRounds is how many times each probe repeats its timed loop; the
// probe reports the median round.
const probeRounds = 5

// Sinks keep the compiler from discarding the probed calls.
var (
	sinkElement gf2m.Element
	sinkFloat   float64
	sinkWord    uint64
	sinkPoint   ec.Point
	sinkStack   *design.Stack
)

// nsPer runs f probeRounds times and returns the median nanoseconds
// per operation, f performing ops operations per call.
func nsPer(ops int, f func() error) (float64, error) {
	ts := make([]float64, probeRounds)
	for i := range ts {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(ts), nil
}

// probe times each layer's public functions on the workload's stack,
// target and seed, one layer at a time and outside the workload's own
// concurrency, and returns the unit costs by per-layer metric name.
func probe(inst *instance, e env, o *observer) (map[string]float64, error) {
	p := map[string]float64{}
	tgt := inst.target
	// Probe passes run untraced inside the library: the ledger's
	// registry holds the workload's repetitions only.
	tgt.Metrics = nil
	steps := []struct {
		name string
		run  func() error
	}{
		{"gf2m", func() error { return probeField(p, e.seed) }},
		{"coproc", func() error { return probeLanes(p, inst) }},
		{"sample-path", func() error { return probeSamplePath(p, inst, e.seed) }},
		{"sca.CPA", func() error { return probeCPA(p, tgt, e.seed) }},
		{"ec", func() error { return probeCurve(p, inst.stack.Curve, e.seed) }},
		{"protocol", func() error { return probeSessions(p, inst.stack, e.seed) }},
		{"design", func() error { return probeDesign(p, inst.stack.Point) }},
	}
	for _, s := range steps {
		id := o.begin("probe/"+s.name, kindProbe)
		err := s.run()
		o.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return p, nil
}

func probeField(p map[string]float64, seed uint64) error {
	d := rng.NewDRBG(seed)
	x := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64())
	y := gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64())
	var err error
	const n = 20000
	if p["gf2m.mul_ns"], err = nsPer(n, func() error {
		for i := 0; i < n; i++ {
			x = gf2m.Mul(x, y)
		}
		sinkElement = x
		return nil
	}); err != nil {
		return err
	}
	if p["gf2m.sqr_ns"], err = nsPer(n, func() error {
		for i := 0; i < n; i++ {
			x = gf2m.Sqr(x)
		}
		sinkElement = x
		return nil
	}); err != nil {
		return err
	}
	const inv = 500
	p["gf2m.inv_ns"], err = nsPer(inv, func() error {
		for i := 0; i < inv; i++ {
			x = gf2m.Add(gf2m.Inv(x), y)
		}
		sinkElement = x
		return nil
	})
	return err
}

// laneRuns is one batch of design.DefaultLanes lanes over the
// workload's window, each lane on its own TRNG and mask streams,
// re-seeded per batch as the campaign engine does per trace.
type laneRuns struct {
	lc      *coproc.LaneCPU
	prog    *coproc.Program
	runs    []coproc.LaneRun
	streams []*rng.DRBG
}

func newLaneRuns(inst *instance, masked bool, lanes int) *laneRuns {
	tgt := inst.target
	start, end := tgt.Window(inst.first, inst.last)
	lr := &laneRuns{lc: coproc.NewLaneCPU(tgt.Timing), prog: tgt.Program(), runs: make([]coproc.LaneRun, lanes)}
	lr.lc.Masked = masked
	lr.lc.QuietCycles, lr.lc.MaxCycles = start, end
	g := sca.FixedPoint(tgt.Curve)
	for l := range lr.runs {
		rnd, mask := rng.NewDRBG(0), rng.NewDRBG(0)
		lr.streams = append(lr.streams, rnd, mask)
		lr.runs[l] = coproc.LaneRun{Key: tgt.Key, Rand: rnd.Uint64, MaskRand: mask.Uint64,
			Consts: coproc.OperandConstants(g.X, tgt.Curve.B, g.Y)}
	}
	return lr
}

func (lr *laneRuns) run(batch int) error {
	for i, s := range lr.streams {
		s.Reseed(uint64(batch*len(lr.streams) + i))
	}
	if _, err := lr.lc.Run(lr.prog, lr.runs); err != nil && !errors.Is(err, coproc.ErrStopped) {
		return err
	}
	return nil
}

// probeLanes times the lane interpreter with nil sinks: simulated
// cycles per lane, quiet prefix and evented window together, on the
// plain and on the Boolean-masked datapath.
func probeLanes(p map[string]float64, inst *instance) error {
	_, end := inst.target.Window(inst.first, inst.last)
	for _, m := range []struct {
		name   string
		masked bool
	}{{"coproc.ns_per_lane_cycle", false}, {"coproc.masked_ns_per_lane_cycle", true}} {
		lr := newLaneRuns(inst, m.masked, design.DefaultLanes)
		const batches = 4
		var err error
		if p[m.name], err = nsPer(batches*design.DefaultLanes*end, func() error {
			for b := 0; b < batches; b++ {
				if err := lr.run(b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeSamplePath records one trace's cycle events over the workload's
// window and replays them through each stage of the sample path: the
// power model's base energy, the measurement noise, the lane sink
// (power, noise and buffer together), and the Welch folds.
func probeSamplePath(p map[string]float64, inst *instance, seed uint64) error {
	tgt := inst.target
	start, end := tgt.Window(inst.first, inst.last)
	lr := newLaneRuns(inst, tgt.Masked, 1)
	var evs []coproc.CycleEvent
	lr.runs[0].Sink = func(ev *coproc.CycleEvent) { evs = append(evs, *ev) }
	if err := lr.run(0); err != nil {
		return err
	}
	if len(evs) == 0 {
		return errors.New("the window produced no cycle events")
	}
	model := power.NewModel(tgt.Power)
	reps := 20000/len(evs) + 1
	var err error
	if p["power.base_energy_ns"], err = nsPer(reps*len(evs), func() error {
		for r := 0; r < reps; r++ {
			for i := range evs {
				sinkFloat += model.CycleBaseEnergy(&evs[i])
			}
		}
		return nil
	}); err != nil {
		return err
	}

	g := rng.NewGaussian(seed)
	block := make([]float64, 256)
	const blocks = 100
	if p["rng.gauss_ns_per_sample"], err = nsPer(blocks*len(block), func() error {
		for i := 0; i < blocks; i++ {
			g.Fill(block)
		}
		return nil
	}); err != nil {
		return err
	}
	d := rng.NewDRBG(seed)
	const words = 20000
	if p["rng.drbg_ns_per_u64"], err = nsPer(words, func() error {
		for i := 0; i < words; i++ {
			sinkWord ^= d.Uint64()
		}
		return nil
	}); err != nil {
		return err
	}

	col := trace.NewCollector(model, start, end)
	sink := col.LaneSink()
	var samples []float64
	if p["trace.sink_ns_per_sample"], err = nsPer(reps*len(evs), func() error {
		for r := 0; r < reps; r++ {
			col.Begin()
			for i := range evs {
				sink(&evs[i])
			}
			tr := col.Take()
			if r == 0 {
				samples = append(samples[:0], tr.Samples...)
			}
			tr.Release()
		}
		return nil
	}); err != nil {
		return err
	}
	if len(samples) == 0 {
		return errors.New("the lane sink recorded no samples")
	}

	folds := 20000/len(samples) + 1
	for _, f := range []struct {
		name string
		add  func([]float64) error
	}{
		{"trace.welch_add_ns_per_sample", trace.NewOnlineWelch().AddA},
		{"trace.welch2_add_ns_per_sample", trace.NewOnlineWelch2().AddA},
	} {
		if p[f.name], err = nsPer(folds*len(samples), func() error {
			for i := 0; i < folds; i++ {
				if err := f.add(samples); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeCPA times sca.CPA per analysed trace on a small campaign over
// the dpa_rpc window, acquired on the workload's target.
func probeCPA(p map[string]float64, tgt *sca.Target, seed uint64) error {
	first, last := dpaWindow()
	const n = 300
	camp, err := tgt.AcquireCampaign(n, first, last, rng.NewDRBG(seed+5).Uint64)
	if err != nil {
		return err
	}
	p["sca.cpa_ns_per_trace"], err = nsPer(n, func() error {
		_, err := sca.CPA(camp, sca.CPAOptions{Bits: dpaBits})
		return err
	})
	return err
}

func probeCurve(p map[string]float64, curve *ec.Curve, seed uint64) error {
	src := rng.NewDRBG(seed).Uint64
	const n = 100
	var err error
	p["ec.random_point_us"], err = nsPer(n, func() error {
		for i := 0; i < n; i++ {
			sinkPoint = curve.RandomPoint(src)
		}
		return nil
	})
	p["ec.random_point_us"] /= 1e3
	return err
}

// timedMul is the PointMultiplier the probed sessions run on: the
// fleet's software ladder, with its calls counted and timed.
type timedMul struct {
	inner protocol.PointMultiplier
	calls int
	dur   time.Duration
}

func (m *timedMul) ScalarMul(k modn.Scalar, pt ec.Point) (ec.Point, error) {
	t0 := time.Now()
	defer func() { m.calls++; m.dur += time.Since(t0) }()
	return m.inner.ScalarMul(k, pt)
}

func (m *timedMul) XOnlyMul(k modn.Scalar, pt ec.Point) (gf2m.Element, error) {
	t0 := time.Now()
	defer func() { m.calls++; m.dur += time.Since(t0) }()
	return m.inner.XOnlyMul(k, pt)
}

// probeSessions runs the fleet engine's per-device work on the stack:
// key generation for a device and its reader, then server-first
// mutual-authentication sessions over a lossless link and over the
// lossy one (the stack's own channel, or the sweep loss when the stack
// has a perfect one), each session on a reset link as the fleet does.
func probeSessions(p map[string]float64, st *design.Stack, seed uint64) error {
	const devices, sessions = 4, 10
	lossy := st.Channel
	if st.Point.Channel == design.ChannelPerfect {
		lossy = link.Lossy(design.DefaultSweepLoss)
	}
	reg := obs.New()
	var keygen, clean, noisy, ladders time.Duration
	var muls int
	// Seeds follow the fleet engine's per-device streams: tag 21 for
	// the parties, 100+rep for the sessions' channels.
	for dev := 0; dev < devices; dev++ {
		src := rng.NewDRBG(design.MixSeed(seed, dev, 21)).Uint64
		mul := &timedMul{inner: &protocol.SoftwareMultiplier{Curve: st.Curve, Rand: src}}
		t0 := time.Now()
		rdr, err := protocol.NewReader(st.Curve, mul, src)
		if err != nil {
			return err
		}
		tag, err := protocol.NewTag(st.Curve, mul, src, rdr.Pub)
		if err != nil {
			return err
		}
		rdr.Register(tag.Pub)
		keygen += time.Since(t0)

		run := func(cc link.ChannelConfig, reg *obs.Registry) (time.Duration, error) {
			pair, err := link.NewPair(cc, st.ARQ, 0)
			if err != nil {
				return 0, err
			}
			pair.Instrument(reg)
			wire := protocol.NewWire(pair)
			var total time.Duration
			for s := 0; s < sessions; s++ {
				if err := pair.Reset(cc, st.ARQ, design.MixSeed(seed, dev, 100+s)); err != nil {
					return 0, err
				}
				t0 := time.Now()
				if _, err := protocol.RunMutualAuthSession(tag, rdr, protocol.SessionOptions{Wire: wire, ServerFirst: true}); err != nil {
					return 0, err
				}
				total += time.Since(t0)
			}
			return total, nil
		}
		mul.calls, mul.dur = 0, 0
		d, err := run(link.Lossless(), nil)
		if err != nil {
			return err
		}
		clean, muls, ladders = clean+d, muls+mul.calls, ladders+mul.dur
		if d, err = run(lossy, reg); err != nil {
			return err
		}
		noisy += d
	}
	n := float64(devices * sessions)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	p["fleet.keygen_us"] = us(keygen) / devices
	p["protocol.session_us"] = us(clean) / n
	p["ec.ladder_us"] = us(ladders) / float64(muls)
	p["protocol.ec_frac"] = float64(ladders) / float64(clean)
	p["protocol.scalar_muls_per_session"] = float64(muls) / n
	p["link.session_overhead_us"] = (us(noisy) - us(clean)) / n
	p["link.tries_per_session"] = float64(reg.Counter("link_tries").Value()) / n
	return nil
}

// probeDesign times a full Point.Build and the design cache's hit path
// (BuildInto a reused stack, specializing only the seed).
func probeDesign(p map[string]float64, pt design.Point) error {
	const builds = 200
	var err error
	if p["design.build_us"], err = nsPer(builds, func() error {
		for i := 0; i < builds; i++ {
			s, err := pt.Build()
			if err != nil {
				return err
			}
			sinkStack = s
		}
		return nil
	}); err != nil {
		return err
	}
	p["design.build_us"] /= 1e3
	cache := design.NewCache()
	if _, err := cache.Build(pt); err != nil {
		return err
	}
	var dst design.Stack
	const hits = 20000
	p["design.cache_buildinto_ns"], err = nsPer(hits, func() error {
		q := pt
		for i := 0; i < hits; i++ {
			q.Seed = uint64(i)
			if err := cache.BuildInto(&dst, q); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
