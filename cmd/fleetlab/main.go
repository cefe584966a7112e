// Command fleetlab simulates a hospital-scale fleet of implants —
// heterogeneous cohorts of design points (pacemaker generations,
// body-area sensors, legacy unbalanced silicon) with per-device
// channel jitter, battery age spread and firmware revision — running
// longitudinal mutual-authentication workloads: scheduled sessions,
// re-authentication storms, and the battery-lifetime consequence of
// each cohort's security energy.
//
//	fleetlab run   [-devices 1000] [-fleet fleet.json] [-sessions 0]
//	               [-storm -1] [-loss 0.1] [-seed 1] [-workers 0]
//	               [-shards 0] [-shard i/N] [-o out] [-checkpoint f]
//	               [-checkpoint-interval 1000] [-resume] [-metrics m.json]
//	fleetlab merge [-o out] [-metrics m.json] shard.ckpt...
//
// The engine's contract is byte-identity: the rendered report is the
// same for any -workers count, any -shards reduction layout, and any
// cross-process partition of the device range. `run -shard i/N`
// simulates the i-th of N contiguous device blocks and writes a
// mergeable shard checkpoint (internal/store format) to -o; `merge`
// folds N such shards into the report a single process would have
// printed, byte for byte, in any argument order. Every per-device
// quantity is a pure function of (config, device index), so shards
// never communicate.
//
// Throughput comes from the design-layer build cache (each distinct
// hardware configuration pays Point.Build once per process; the
// thousands of devices sharing it get a cheap specialized copy) and
// from pooled per-worker session state (the link pair is reset in
// place between sessions, never reallocated). The bench/ module's
// fleet_hospital workload times the fleet end to end, with the build
// cost and the cache-hit path as their own ledger rows
// (design.build_us, design.cache_buildinto_ns).
//
// Long runs are crash-safe: -checkpoint + -checkpoint-interval write
// durable accumulator snapshots every N devices and once more on
// SIGINT/SIGTERM; -resume continues from the snapshot and produces
// the byte-identical final report. A -resume against a checkpoint
// from a different fleet config or code revision is refused by name.
//
// With -metrics the run writes an obs manifest (environment stamp,
// resolved flags, metric snapshot) for cmd/reportgen to fold.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"medsec/internal/cliutil"
	"medsec/internal/design"
	"medsec/internal/fleet"
	"medsec/internal/obs"
	"medsec/internal/profiling"
)

// main is the binary's single exit point: subcommands return errors
// so deferred cleanup (profiles, manifests, final checkpoints) runs
// on every path; the signal context turns SIGINT/SIGTERM into
// graceful campaign cancellation.
func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetlab: ")
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "run":
		return runCmd(ctx, rest)
	case "merge":
		return mergeCmd(rest)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: fleetlab <run|merge> [flags]")
}

// fleetFlags registers run's fleet-config flags and returns a loader
// that resolves them into a fleet config after fs.Parse.
func fleetFlags(fs *flag.FlagSet) func() (fleet.Config, error) {
	fleetFile := fs.String("fleet", "", "JSON fleet config file (overrides -devices/-loss; -sessions/-storm/-seed still apply if set)")
	devices := fs.Int("devices", 1000, "total device population for the built-in hospital fleet")
	loss := fs.Float64("loss", design.DefaultSweepLoss, "nominal ward-channel loss rate for the built-in fleet")
	sessions := fs.Int("sessions", 0, "scheduled sessions per device (0 = fleet config default)")
	storm := fs.Int("storm", -1, "re-auth storm sessions per device (-1 = config default, 0 = no storm)")
	seed := fs.Uint64("seed", 1, "fleet seed (experiment identity; reruns replay bit-identically)")
	return func() (fleet.Config, error) {
		var cfg fleet.Config
		if *fleetFile != "" {
			buf, err := os.ReadFile(*fleetFile)
			if err != nil {
				return cfg, err
			}
			// Strict decode: a misspelled knob in a fleet config is
			// rejected by name, not silently defaulted (same contract
			// as designlab -grid).
			dec := json.NewDecoder(bytes.NewReader(buf))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return cfg, fmt.Errorf("-fleet %s: %v", *fleetFile, err)
			}
		} else {
			cfg = fleet.HospitalFleet(*devices, *loss)
		}
		seedSet := *fleetFile == "" // built-in fleet: -seed always applies
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if seedSet {
			cfg.Seed = *seed
		}
		if *sessions > 0 {
			cfg.SessionsPerDevice = *sessions
		}
		switch {
		case *storm == 0:
			cfg.Storm = nil
		case *storm > 0:
			if cfg.Storm == nil {
				cfg.Storm = &fleet.StormConfig{LossBoost: 0.2}
			}
			cfg.Storm.Sessions = *storm
		}
		return cfg, cfg.Validate()
	}
}

func runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleetlab run", flag.ContinueOnError)
	load := fleetFlags(fs)
	var (
		workers   = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS); any value gives byte-identical reports")
		shards    = fs.Int("shards", 0, "reduction shards (0 = engine default; must be >= 0); any layout gives byte-identical reports")
		shardSpec = fs.String("shard", "", "simulate device block i/N (e.g. 0/4) and write a mergeable shard checkpoint to -o")
		out       = fs.String("o", "", "output path: full runs write the rendered report; -shard runs write the shard checkpoint")
		ckpt      = fs.String("checkpoint", "", "write crash-safe accumulator snapshots to this file")
		ckptEvery = fs.Int("checkpoint-interval", design.DefaultCheckpointInterval, "devices between checkpoint writes")
		resume    = fs.Bool("resume", false, "continue from the -checkpoint file (refused on config or code drift)")
		metrics   = fs.String("metrics", "", "write a run manifest (flags + metric snapshot) to this JSON file")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 = engine default), got %d", *shards)
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg, err := load()
	if err != nil {
		return err
	}
	shardIdx, shardCount, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	if shardCount > 0 && *out == "" {
		return fmt.Errorf("-shard requires -o (the shard checkpoint path for fleetlab merge)")
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}

	total := cfg.TotalDevices()
	fmt.Printf("fleetlab: seed=%d devices=%d cohorts=%d workers=%d shards=%d\n",
		cfg.Seed, total, len(cfg.Cohorts), *workers, *shards)
	if shardCount > 0 {
		fmt.Printf("fleetlab: cross-process shard %d/%d\n", shardIdx, shardCount)
	}

	start := time.Now()
	rep, err := fleet.Run(cfg, fleet.RunOptions{
		Workers:         *workers,
		Shards:          *shards,
		ShardIndex:      shardIdx,
		ShardCount:      shardCount,
		Metrics:         reg,
		Ctx:             ctx,
		Progress:        progressPrinter(total),
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	fmt.Print(rep.Render())
	cs := rep.CacheStats
	sessions := sessionCount(rep)
	fmt.Printf("\n%d devices, %d sessions in %.2fs (%.0f sessions/s); build cache: %d distinct builds, %.1f%% hit rate\n",
		rep.Devices(), sessions, elapsed, float64(sessions)/elapsed, cs.Size, 100*cs.HitRate())

	if shardCount > 0 {
		if err := fleet.WriteShard(*out, rep, shardCount); err != nil {
			return err
		}
		fmt.Printf("shard checkpoint written to %s\n", *out)
	} else if *out != "" {
		if err := os.WriteFile(*out, []byte(rep.Render()), 0o644); err != nil {
			return err
		}
	}

	if *metrics != "" {
		if elapsed > 0 {
			reg.Gauge("fleetlab_sessions_per_sec").Set(float64(sessions) / elapsed)
		}
		if err := obs.NewManifest("fleetlab", "run", cfg.Seed, fs, reg).Write(*metrics); err != nil {
			return err
		}
	}
	return nil
}

func mergeCmd(args []string) error {
	fs := flag.NewFlagSet("fleetlab merge", flag.ContinueOnError)
	out := fs.String("o", "", "write the merged rendered report to this file")
	metrics := fs.String("metrics", "", "write a merge manifest to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := expandGlobs(fs.Args())
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("usage: fleetlab merge [-o out] shard.ckpt...")
	}

	rep, err := fleet.MergeShards(paths)
	if err != nil {
		return err
	}
	fmt.Printf("fleetlab: merged %d shards covering %d devices\n", len(paths), rep.Devices())
	fmt.Print(rep.Render())

	if *out != "" {
		if err := os.WriteFile(*out, []byte(rep.Render()), 0o644); err != nil {
			return err
		}
	}
	if *metrics != "" {
		reg := obs.New()
		reg.Counter("fleet_merge_shards").Add(int64(len(paths)))
		reg.Counter("fleet_devices").Add(int64(rep.Devices()))
		if err := obs.NewManifest("fleetlab", "merge", rep.Config.Seed, fs, reg).Write(*metrics); err != nil {
			return err
		}
	}
	return nil
}

// parseShard parses "-shard i/N" into (i, N). Empty means the whole
// fleet (0, 0).
func parseShard(s string) (idx, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q: want i/N (e.g. 0/4)", s)
	}
	if idx, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: %v", s, err)
	}
	if count, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: %v", s, err)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("-shard %q: want 0 <= i < N", s)
	}
	return idx, count, nil
}

// expandGlobs resolves each argument as a glob when it contains glob
// metacharacters, otherwise passes it through verbatim.
func expandGlobs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		if !strings.ContainsAny(a, "*?[") {
			out = append(out, a)
			continue
		}
		m, err := filepath.Glob(a)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", a, err)
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("%q matched no files", a)
		}
		out = append(out, m...)
	}
	return out, nil
}

// progressPrinter reports completed devices at ~5% increments so a
// million-device run shows life without drowning the report.
func progressPrinter(total int) func(int) {
	step := total / 20
	if step < 1 {
		step = 1
	}
	last := 0
	return func(done int) {
		if done-last >= step || done == total {
			last = done
			fmt.Fprintf(os.Stderr, "fleetlab: %d/%d devices\n", done, total)
		}
	}
}

// sessionCount sums all executed sessions (scheduled + storm) from
// the integer accumulator.
func sessionCount(rep *fleet.Report) int64 {
	var n int64
	for _, c := range rep.Accum.Cohorts {
		n += c.Sessions + c.StormSessions
	}
	return n
}
