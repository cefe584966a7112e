package main

// The fleet perf record: `fleetlab bench` measures the two mechanisms
// the fleet engine's throughput rests on — the design-layer build
// cache (one Point.Build per distinct hardware configuration, cheap
// specialized copies for the thousands of devices sharing it) and the
// pooled session state — plus end-to-end fleet throughput and the
// cost of cross-process shard merging, and writes a provenance-
// stamped JSON record (BENCH_fleet.json in the repo root).

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"medsec/internal/design"
	"medsec/internal/fleet"
	"medsec/internal/obs"
)

// benchResult is one measurement row. Paired rows (naive vs cached)
// fill Before/After/Speedup; scalar rows fill Value.
type benchResult struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Before  float64 `json:"before,omitempty"`
	After   float64 `json:"after,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	Value   float64 `json:"value,omitempty"`
}

// benchReport is the BENCH_fleet.json schema (go version,
// GOMAXPROCS, CPU count and git SHA stamp its provenance).
type benchReport struct {
	Suite       string `json:"suite"`
	Description string `json:"description"`

	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitSHA     string `json:"git_sha"`

	Devices           int `json:"devices"`
	SessionsPerDevice int `json:"sessions_per_device"`
	StormSessions     int `json:"storm_sessions"`

	Results    []benchResult `json:"results"`
	Acceptance struct {
		CacheSpeedupMin float64 `json:"cache_speedup_min"`
		CacheSpeedup    float64 `json:"cache_speedup"`
		MergeIdentical  bool    `json:"merge_identical"`
		Pass            bool    `json:"pass"`
	} `json:"acceptance"`
}

func benchCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleetlab bench", flag.ContinueOnError)
	load := fleetFlags(fs)
	workers := fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	out := fs.String("o", "", "write the JSON record to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bench default: one scheduled session, no storm, unless the
	// flags say otherwise — the fleet-scale row measures throughput,
	// not workload richness.
	if !flagSet(fs, "sessions") {
		if err := fs.Set("sessions", "1"); err != nil {
			return err
		}
	}
	if !flagSet(fs, "storm") {
		if err := fs.Set("storm", "0"); err != nil {
			return err
		}
	}
	cfg, err := load()
	if err != nil {
		return err
	}

	rep := &benchReport{
		Suite: "fleet",
		Description: "Fleet-engine hot paths: per-device stack construction (naive Point.Build " +
			"vs the design build cache), a designlab-style grid build reusing the same cache, " +
			"end-to-end fleet session throughput, and cross-process shard-merge overhead. " +
			"Reports are byte-identical across worker counts, reduction layouts and shard " +
			"partitions (TestDeterminismMatrix, TestCrossProcessMergeByteIdentical).",
		CPU:               runtime.GOARCH + "/" + cpuModel(),
		GoVersion:         runtime.Version(),
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		GitSHA:            obs.GitSHA(),
		Devices:           cfg.TotalDevices(),
		SessionsPerDevice: cfg.SessionsPerDevice,
	}
	if cfg.Storm != nil {
		rep.StormSessions = cfg.Storm.Sessions
	}

	// 1. Per-device stack construction: every device carries its own
	// jittered loss/distance and private seeds, so the naive engine
	// pays a full Build per device; the cache pays one per distinct
	// hardware configuration plus a cheap specialization.
	naiveNS, cachedNS := benchBuild(cfg)
	cacheSpeedup := naiveNS / cachedNS
	rep.Results = append(rep.Results, benchResult{
		Name: "fleet/device-stack-build", Unit: "ns/op",
		Before: round3(naiveNS), After: round3(cachedNS), Speedup: round3(cacheSpeedup),
	})
	fmt.Printf("device-stack-build: naive %.0f ns/op, cached %.0f ns/op (%.1fx)\n",
		naiveNS, cachedNS, cacheSpeedup)

	// 2. A designlab-style grid: a few build identities crossed with
	// many link operating points (the shape of a -grid file sweeping
	// loss × distance per candidate circuit).
	gridNaive, gridCached, pts, ids := benchGrid()
	rep.Results = append(rep.Results, benchResult{
		Name: fmt.Sprintf("designlab/grid-build (%d pts, %d identities)", pts, ids), Unit: "ns/op",
		Before: round3(gridNaive), After: round3(gridCached), Speedup: round3(gridNaive / gridCached),
	})
	fmt.Printf("designlab-grid-build: naive %.0f ns/op, cached %.0f ns/op (%.1fx)\n",
		gridNaive, gridCached, gridNaive/gridCached)

	// 3. End-to-end fleet throughput at the configured scale.
	start := time.Now()
	frep, err := fleet.Run(cfg, fleet.RunOptions{
		Workers:  *workers,
		Ctx:      ctx,
		Progress: progressPrinter(cfg.TotalDevices()),
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	sessions := sessionCount(frep)
	cs := frep.CacheStats
	rep.Results = append(rep.Results,
		benchResult{Name: "fleet/run-seconds", Unit: "s", Value: round3(elapsed)},
		benchResult{Name: "fleet/sessions-per-sec", Unit: "sessions/s", Value: round3(float64(sessions) / elapsed)},
		benchResult{Name: "fleet/cache-hit-rate", Unit: "ratio", Value: round3(cs.HitRate())},
		benchResult{Name: "fleet/distinct-builds", Unit: "count", Value: float64(cs.Size)},
	)
	fmt.Printf("fleet: %d devices, %d sessions in %.2fs (%.0f sessions/s); %d distinct builds, %.1f%% hit rate\n",
		frep.Devices(), sessions, elapsed, float64(sessions)/elapsed, cs.Size, 100*cs.HitRate())

	// 4. Cross-process shard-merge overhead, on a sub-fleet sized so
	// the bench stays fast at any -devices: three shard artifacts,
	// merged and byte-compared against the single-process reference.
	mergeMS, identical, err := benchMerge(ctx, cfg, *workers)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, benchResult{
		Name: "fleet/3-shard-merge", Unit: "ms", Value: round3(mergeMS),
	})
	fmt.Printf("3-shard merge: %.2f ms, byte-identical=%v\n", mergeMS, identical)

	rep.Acceptance.CacheSpeedupMin = 5
	rep.Acceptance.CacheSpeedup = round3(cacheSpeedup)
	rep.Acceptance.MergeIdentical = identical
	rep.Acceptance.Pass = cacheSpeedup >= 5 && identical

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		fmt.Print(string(buf))
		return nil
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench record written to %s (pass=%v)\n", *out, rep.Acceptance.Pass)
	if !rep.Acceptance.Pass {
		return fmt.Errorf("acceptance failed: cache speedup %.2fx (min 5x), merge identical %v",
			cacheSpeedup, identical)
	}
	return nil
}

// deviceVariants mimics the engine's per-device specialization: the
// cohort's hardware configuration with jittered loss and distance and
// private key/TRNG seeds. Each variant is a distinct Point value, but
// all share one build identity per cohort.
func deviceVariants(cfg fleet.Config, n int) []design.Point {
	out := make([]design.Point, 0, n)
	for i := 0; len(out) < n; i++ {
		co := cfg.Cohorts[i%len(cfg.Cohorts)]
		p := co.Point
		p.Name = fmt.Sprintf("%s-%04d", co.Name, i)
		if p.Channel != design.ChannelPerfect {
			p.Loss += float64(i%7) * 0.01
		}
		p.DistanceM += float64(i%5) * 0.1
		p.Seed = uint64(1000 + i)
		p.TRNGSeed = uint64(2000 + i)
		out = append(out, p)
	}
	return out
}

// benchBuild times naive per-device Point.Build against the fleet
// engine's actual path — Cache.BuildInto specializing into a
// worker-owned stack buffer — over a realistic device population.
func benchBuild(cfg fleet.Config) (naiveNS, cachedNS float64) {
	pts := deviceVariants(cfg, 256)
	naiveNS = timeNS(pts, func(p design.Point) error {
		_, err := p.Build()
		return err
	})
	cache := design.NewCache()
	var buf design.Stack
	cachedNS = timeNS(pts, func(p design.Point) error {
		return cache.BuildInto(&buf, p)
	})
	return naiveNS, cachedNS
}

// benchGrid times a designlab-style grid build: 3 circuit identities
// (digit widths) × 15 link operating points (loss × distance).
func benchGrid() (naiveNS, cachedNS float64, points, identities int) {
	var pts []design.Point
	for _, d := range []int{1, 4, 8} {
		for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
			for _, dist := range []float64{0.5, 1, 2} {
				p := design.Defaults()
				p.DigitSize = d
				p.Channel = design.ChannelIID
				p.Loss = loss
				p.DistanceM = dist
				p.Name = fmt.Sprintf("d%d-l%.2f-m%.1f", d, loss, dist)
				pts = append(pts, p)
			}
		}
	}
	naiveNS = timeNS(pts, func(p design.Point) error {
		_, err := p.Build()
		return err
	})
	cache := design.NewCache()
	cachedNS = timeNS(pts, func(p design.Point) error {
		_, err := cache.Build(p)
		return err
	})
	return naiveNS, cachedNS, len(pts), 3
}

// timeNS runs fn over pts repeatedly until enough wall time has
// accumulated for a stable per-op figure.
func timeNS(pts []design.Point, fn func(design.Point) error) float64 {
	const minWindow = 100 * time.Millisecond
	ops := 0
	start := time.Now()
	for time.Since(start) < minWindow {
		for _, p := range pts {
			if err := fn(p); err != nil {
				panic(err) // bench points are valid by construction
			}
			ops++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// benchMerge runs a small fleet as three cross-process shards and as
// one process, times the merge, and byte-compares the reports.
func benchMerge(ctx context.Context, cfg fleet.Config, workers int) (ms float64, identical bool, err error) {
	sub := cfg
	if sub.TotalDevices() > 120 {
		sub = fleet.HospitalFleet(120, design.DefaultSweepLoss)
		sub.SessionsPerDevice = cfg.SessionsPerDevice
		sub.Storm = cfg.Storm
		sub.Seed = cfg.Seed
	}
	single, err := fleet.Run(sub, fleet.RunOptions{Workers: workers, Ctx: ctx})
	if err != nil {
		return 0, false, err
	}
	dir, err := os.MkdirTemp("", "fleetbench")
	if err != nil {
		return 0, false, err
	}
	defer os.RemoveAll(dir)
	const shards = 3
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		srep, err := fleet.Run(sub, fleet.RunOptions{
			Workers: workers, Ctx: ctx, ShardIndex: s, ShardCount: shards,
		})
		if err != nil {
			return 0, false, err
		}
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", s))
		if err := fleet.WriteShard(paths[s], srep, shards); err != nil {
			return 0, false, err
		}
	}
	start := time.Now()
	merged, err := fleet.MergeShards(paths)
	if err != nil {
		return 0, false, err
	}
	ms = float64(time.Since(start).Microseconds()) / 1000
	return ms, merged.Render() == single.Render(), nil
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
