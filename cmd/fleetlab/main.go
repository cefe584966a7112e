// Command fleetlab simulates a hospital-scale fleet of implants —
// heterogeneous cohorts of design points (pacemaker generations,
// body-area sensors, legacy unbalanced silicon) with per-device
// channel jitter, battery age spread and firmware revision — running
// longitudinal mutual-authentication workloads: scheduled sessions,
// re-authentication storms, and the battery-lifetime consequence of
// each cohort's security energy.
//
//	fleetlab run [-devices 1000] [-fleet fleet.json] [-sessions 0]
//	             [-storm -1] [-loss 0.1] [-seed 1] [-workers 0]
//	             [-shards 0] [-o out] [-checkpoint f]
//	             [-checkpoint-interval 1000] [-resume] [-metrics m.json]
//
// The engine's contract is byte-identity: the rendered report is the
// same for any -workers count and any -shards reduction layout,
// because every per-device quantity is a pure function of (config,
// device index) and every report field is an exact integer. -o writes
// the rendered report to a file.
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
// Long runs are crash-safe: -checkpoint writes durable accumulator
// snapshots every -checkpoint-interval devices (0: none) and once more
// on SIGINT/SIGTERM; -resume continues from the snapshot and produces
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
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
	if args[0] != "run" {
		return usageError()
	}
	return runCmd(ctx, args[1:])
}

func usageError() error {
	return fmt.Errorf("usage: fleetlab run [flags]")
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
		out       = fs.String("o", "", "write the rendered report to this file")
		ckpt      = fs.String("checkpoint", "", "write crash-safe accumulator snapshots to this file (final write on SIGINT/SIGTERM)")
		ckptEvery = fs.Int("checkpoint-interval", design.DefaultCheckpointInterval, "devices between checkpoint writes (0 = only the final write)")
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
	if *resume && *ckpt == "" {
		return errors.New("-resume needs -checkpoint")
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

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}

	total := cfg.TotalDevices()
	fmt.Printf("fleetlab: seed=%d devices=%d cohorts=%d workers=%d shards=%d\n",
		cfg.Seed, total, len(cfg.Cohorts), *workers, *shards)

	start := time.Now()
	rep, err := fleet.Run(cfg, fleet.RunOptions{
		Workers:         *workers,
		Shards:          *shards,
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
		total, sessions, elapsed, float64(sessions)/elapsed, cs.Size, 100*cs.HitRate())

	if *out != "" {
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
