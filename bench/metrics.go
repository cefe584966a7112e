package main

// metricDef is one metric of BENCHMARK.json: its name, unit, which
// direction is better and, for end-to-end metrics, the share of the
// parent's median by which it may worsen before a change counts as a
// regression. TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run. Failed repetitions are not a metric here (their
// share is 0 on a healthy run, and a bound relative to 0 means
// nothing); they are the result line's "failed" count instead.
//
// Every bound is the largest BENCHMARK.json allows. On the 2-vCPU
// reference host the throughput of runs minutes apart spreads by 5–17%
// (quartile distance over ten seeds, as a share of the median) with the
// host's load, whatever the seed, and the ~15 MB processes' peak RSS by
// up to 8% with GC timing; README.md has the measurements.
var endToEnd = []metricDef{
	// Items (TVLA/CPA traces, fleet sessions) per second: the median of
	// the warm repetitions, the CPA included for dpa_rpc.
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.25},
	// The median of several fresh set-ups: stack build, target, and the
	// workload at its smallest size, which pays the lazily built
	// per-invocation state (acquisition plan, lane scratch, design
	// cache, cohort calibration).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// VmHWM of the process at the end of the run.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the ledger metrics of a --trace 1 run, in layer order
// from the field up to the process.
var perLayer = []metricDef{
	{Name: "gf2m.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "gf2m.sqr_ns", Unit: "ns", Better: "lower"},
	{Name: "gf2m.inv_ns", Unit: "ns", Better: "lower"},
	{Name: "ec.ladder_us", Unit: "us", Better: "lower"},
	{Name: "ec.random_point_us", Unit: "us", Better: "lower"},
	{Name: "coproc.ns_per_lane_cycle", Unit: "ns", Better: "lower"},
	{Name: "coproc.masked_ns_per_lane_cycle", Unit: "ns", Better: "lower"},
	{Name: "power.base_energy_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.gauss_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "rng.drbg_ns_per_u64", Unit: "ns", Better: "lower"},
	{Name: "trace.sink_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "trace.welch_add_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "trace.welch2_add_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "sca.cpa_ns_per_trace", Unit: "ns", Better: "lower"},
	{Name: "sca.prologue_skip_frac", Unit: "frac", Better: "higher"},
	{Name: "sca.checkpoint_resume_frac", Unit: "frac", Better: "higher"},
	{Name: "campaign.batch_fill_mean", Unit: "count", Better: "higher"},
	{Name: "campaign.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.keygen_us", Unit: "us", Better: "lower"},
	{Name: "protocol.session_us", Unit: "us", Better: "lower"},
	{Name: "protocol.ec_frac", Unit: "frac", Better: "lower"},
	{Name: "protocol.scalar_muls_per_session", Unit: "count", Better: "lower"},
	{Name: "link.session_overhead_us", Unit: "us", Better: "lower"},
	{Name: "link.tries_per_session", Unit: "count", Better: "lower"},
	{Name: "design.build_us", Unit: "us", Better: "lower"},
	{Name: "design.cache_buildinto_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.cache_hit_rate", Unit: "frac", Better: "higher"},
	{Name: "go.allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "span.setup_s", Unit: "s", Better: "lower"},
	{Name: "span.acquire_s", Unit: "s", Better: "lower"},
	{Name: "span.analysis_s", Unit: "s", Better: "lower"},
	{Name: "span.run_s", Unit: "s", Better: "lower"},
	{Name: "unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}
