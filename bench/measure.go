package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"medsec/internal/obs"
)

// setupRuns is how many fresh set-ups a run times; setup_s is their
// median.
const setupRuns = 5

// config is one benchmark run of one workload.
type config struct {
	w   *workload
	env env
	// seconds of warm repetitions after set-up and the cold repetition:
	// repetitions start until this much time has passed.
	seconds time.Duration
	// minWarm warm repetitions run however long they take (twice as
	// many when traced, half of them untraced).
	minWarm int
	traced  bool
	// golden maps workload names to their expected result digest at
	// paper scale; nil skips the comparison.
	golden map[string]string
}

// repStat is one finished repetition.
type repStat struct {
	index   int
	traced  bool
	seconds float64
	out     repOut
	err     error // the library failed or a check failed
}

func (s repStat) rate() float64 { return float64(s.out.items) / s.seconds }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured.
type report struct {
	res    result
	setups []float64
	reps   []repStat
	doc    *traceDoc // traced runs only
}

// checkGolden compares a result digest with the committed one.
func checkGolden(golden map[string]string, name, digest string) error {
	if golden == nil {
		return nil
	}
	want, ok := golden[name]
	if !ok {
		return fmt.Errorf("no golden digest for %s", name)
	}
	if digest != want {
		return fmt.Errorf("result digest %s differs from the golden %s", digest, want)
	}
	return nil
}

// measure runs one workload: several fresh set-ups, a cold repetition,
// then warm repetitions with a collection before each, and checks every
// repetition's verdict and digest. A traced run alternates untraced and
// traced warm repetitions, then probes each layer.
func measure(c config) (*report, error) {
	rp := &report{}
	var tr *tracer
	var reg *obs.Registry
	if c.traced {
		tr, reg = newTracer(), obs.New()
	}
	name := c.w.name

	var inst *instance
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		o := tr.observe(fmt.Sprintf("%s/setup%d", name, i), nil)
		id := o.begin("setup", kindSetup)
		t0 := time.Now()
		in, err := c.w.setup(c.env, o)
		d := time.Since(t0)
		o.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		rp.setups = append(rp.setups, d.Seconds())
		inst = in
	}

	rep := func(i int, traced bool) {
		runtime.GC()
		var o *observer
		if traced {
			o = tr.observe(repID(name, i), reg)
		}
		id := o.begin("rep", kindRun)
		t0 := time.Now()
		out, err := inst.rep(o)
		d := time.Since(t0)
		o.end(id)
		s := repStat{index: i, traced: traced, seconds: d.Seconds(), out: out, err: err}
		switch {
		case err != nil: // the library failed; nothing to check
		case out.verdict != nil:
			s.err = out.verdict
		case i > 0 && out.digest != rp.reps[0].out.digest:
			s.err = fmt.Errorf("result digest %s differs from the cold repetition's %s", out.digest, rp.reps[0].out.digest)
		default:
			s.err = checkGolden(c.golden, name, out.digest)
		}
		rp.reps = append(rp.reps, s)
	}

	rep(0, c.traced)
	minWarm := c.minWarm
	var r0 runtimeCounters
	var heap *heapSampler
	if c.traced {
		minWarm *= 2
		runtime.GC()
		var err error
		if r0, err = readRuntime(); err != nil {
			return nil, err
		}
		heap = startHeapSampler(10 * time.Millisecond)
	}
	start := time.Now()
	for i := 1; i <= minWarm || time.Since(start) < c.seconds; i++ {
		rep(i, c.traced && i%2 == 0)
	}

	failed := 0
	for _, s := range rp.reps {
		if s.err != nil {
			failed++
		}
	}
	rp.res = result{Correct: failed == 0, Attempted: len(rp.reps), Failed: failed, Metrics: map[string]metric{}}
	if !c.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rp.res.Metrics["throughput"] = metric{warmRate(rp.reps, false), "1/s"}
		rp.res.Metrics["setup_s"] = metric{median(rp.setups), "s"}
		rp.res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		return rp, nil
	}

	peak := heap.Stop()
	runtime.GC()
	r1, err := readRuntime()
	if err != nil {
		return nil, err
	}
	probes, err := probe(inst, c.env, tr.observe(name+"/probes", nil))
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	vals, layers := ledger(rp, name, tr, snap, probes, r0, r1, peak)
	for _, m := range perLayer {
		rp.res.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
	}
	rp.doc = &traceDoc{Workload: name, Seed: c.env.seed, Workers: c.env.workers, Spans: tr.spans,
		Registry: snap, Probes: probes, Layers: layers, Metrics: rp.res.Metrics}
	return rp, nil
}

// repID is the workload id of repetition i's spans.
func repID(name string, i int) string { return fmt.Sprintf("%s/rep%d", name, i) }

// warmRate is the median items/s of the successful warm repetitions
// that were (or were not) traced.
func warmRate(reps []repStat, traced bool) float64 {
	var rates []float64
	for _, s := range reps[1:] {
		if s.err == nil && s.traced == traced {
			rates = append(rates, s.rate())
		}
	}
	return median(rates)
}

// ledger derives the per-layer metrics of a traced run: the probed
// unit costs, the library's own counters from the registry, the Go
// runtime's counters over the warm repetitions, the span totals, and
// how much of the warm repetitions' CPU time the probed layers explain.
func ledger(rp *report, name string, tr *tracer, snap obs.Snapshot, probes map[string]float64,
	r0, r1 runtimeCounters, heapPeak uint64) (map[string]float64, []layerCost) {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	warm := rp.reps[1:]
	w := warm[len(warm)-1].out.work
	items := 0
	for _, s := range warm {
		items += s.out.items
	}

	traces := float64(snap.Counters["sca_traces_acquired"])
	if cycles := float64(w.laneCycles + w.maskedLaneCycles); cycles > 0 {
		perTrace := cycles / float64(warm[len(warm)-1].out.items)
		m["sca.prologue_skip_frac"] = ratio(float64(snap.Counters["sca_prologue_cycles_skipped"]), traces*perTrace)
	}
	m["sca.checkpoint_resume_frac"] = ratio(float64(snap.Counters["sca_checkpoint_resumes"]), traces)
	fill := snap.Histograms["campaign_batch_fill"]
	m["campaign.batch_fill_mean"] = ratio(fill.Sum, float64(fill.Count))
	m["campaign.merge_ms"] = snap.Gauges["campaign_merge_ns"] / 1e6
	m["fleet.cache_hit_rate"] = snap.Gauges["fleet_build_cache_hit_rate"]

	m["go.allocs_per_item"] = ratio(r1.allocs-r0.allocs, float64(items))
	m["go.gc_cpu_frac"] = ratio(r1.gcCPU-r0.gcCPU, (r1.cpu-r0.cpu)-(r1.idleCPU-r0.idleCPU))
	m["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)

	var run, acquire, analysis []float64
	runs, acq, ana := tr.spanSeconds(kindRun), tr.spanSeconds(kindAcquire), tr.spanSeconds(kindAnalysis)
	for _, s := range warm {
		if s.traced {
			id := repID(name, s.index)
			run, acquire, analysis = append(run, runs[id]), append(acquire, acq[id]), append(analysis, ana[id])
		}
	}
	var setups []float64
	for _, v := range tr.spanSeconds(kindSetup) {
		setups = append(setups, v)
	}
	m["span.setup_s"] = median(setups)
	m["span.run_s"] = median(run)
	m["span.acquire_s"] = median(acquire)
	m["span.analysis_s"] = median(analysis)

	cpu := r1.rusage - r0.rusage
	layers := estimate(probes, w)
	explained := 0.0
	for i := range layers {
		layers[i].Seconds *= float64(len(warm))
		layers[i].ShareCPU = ratio(layers[i].Seconds, cpu)
		explained += layers[i].ShareCPU
	}
	m["unattributed_frac"] = 1 - explained
	m["trace_overhead_frac"] = 1 - ratio(warmRate(rp.reps, true), warmRate(rp.reps, false))
	return m, layers
}

// estimate prices one repetition's work at the probed unit costs, by
// layer. Layers a workload does not use drop out.
func estimate(p map[string]float64, w work) []layerCost {
	ns := []struct {
		layer string
		ns    float64
	}{
		{"coproc", float64(w.laneCycles)*p["coproc.ns_per_lane_cycle"] +
			float64(w.maskedLaneCycles)*p["coproc.masked_ns_per_lane_cycle"]},
		{"trace.sink", float64(w.sinkSamples) * p["trace.sink_ns_per_sample"]},
		{"trace.fold", float64(w.welchSamples)*p["trace.welch_add_ns_per_sample"] +
			float64(w.welch2Samples)*p["trace.welch2_add_ns_per_sample"]},
		{"ec.random_point", float64(w.points) * p["ec.random_point_us"] * 1e3},
		{"sca.cpa", float64(w.cpaTraces) * p["sca.cpa_ns_per_trace"]},
		{"fleet.keygen", float64(w.devices) * p["fleet.keygen_us"] * 1e3},
		{"protocol.session", float64(w.sessions) * p["protocol.session_us"] * 1e3},
		{"link.arq", float64(w.sessions) * p["link.session_overhead_us"] * 1e3},
		// fleet.Run specializes each device's nominal and storm points.
		{"design.cache", 2 * float64(w.devices) * p["design.cache_buildinto_ns"]},
	}
	var out []layerCost
	for _, l := range ns {
		if l.ns != 0 {
			out = append(out, layerCost{Layer: l.layer, Seconds: l.ns / 1e9})
		}
	}
	return out
}

// median is the middle value, or the mean of the middle two; 0 for
// no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
