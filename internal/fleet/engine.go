package fleet

import (
	"context"
	"fmt"
	"math"

	"medsec/internal/battery"
	"medsec/internal/campaign"
	"medsec/internal/design"
	"medsec/internal/link"
	"medsec/internal/obs"
	"medsec/internal/protocol"
	"medsec/internal/rng"
)

// RunOptions are the runtime knobs of one engine invocation — they
// shape how the work executes, never what it computes, so none of
// them is part of the experiment identity.
type RunOptions struct {
	// Workers is the acquisition pool size (<= 0: GOMAXPROCS).
	Workers int
	// Shards is the internal reduction shard count (0:
	// campaign.DefaultShards; negative values are refused). Because the
	// fleet accumulator is integer-exact, results are bit-identical
	// across shard counts, not merely rounding-equal.
	Shards int
	// Metrics, Ctx, Progress follow campaign.Config semantics.
	Metrics  *obs.Registry
	Ctx      context.Context
	Progress func(done int)
	// CheckpointPath enables crash-safe checkpoints: one every
	// CheckpointEvery devices (<= 0: none) and a final one when Ctx is
	// cancelled. Resume continues from the checkpoint file at
	// CheckpointPath.
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool
}

// nominals measures each cohort's nominal energy/timing calibration:
// one noise-free point multiplication on the cohort's design point,
// measured once, serially, in cohort order — a pure function of the
// config — and reused for every device in the cohort (the per-cohort
// analogue of designlab's evalPoint pricing).
func nominals(cfg Config, cache *design.Cache) ([]design.Measurement, error) {
	out := make([]design.Measurement, len(cfg.Cohorts))
	for i, co := range cfg.Cohorts {
		st, err := cache.Build(co.Point)
		if err != nil {
			return nil, err
		}
		key := st.DeviceKey(design.MixSeed(cfg.Seed, i, 7))
		pm, err := st.MeasurePointMul(key, design.MixSeed(cfg.Seed, i, 8))
		if err != nil {
			return nil, err
		}
		out[i] = pm
	}
	return out, nil
}

// lab is one worker's pooled session state: a reusable link pair (the
// wire binds its endpoints once — Pair.Reset keeps them stable), so
// steady-state session setup performs zero link/wire allocations.
type lab struct {
	cache *design.Cache
	pair  *link.Pair
	wire  *protocol.Wire
	// stack and storm are the worker's reusable stack buffers: the
	// cache specializes into them (BuildInto) so the steady-state
	// per-device path never allocates a Stack.
	stack design.Stack
	storm design.Stack
}

func newLab(cache *design.Cache) *lab {
	p := link.NewLosslessPair()
	return &lab{cache: cache, pair: p, wire: protocol.NewWire(p)}
}

// session runs one mutual-authentication session for a device over
// the pooled pair and folds it into out. The parties persist across
// the device's sessions (keys are generated once per device, as on a
// real implant); only the channel is reborn per session.
func (l *lab) session(st *design.Stack, pm design.Measurement, dev *protocol.Tag,
	rdr *protocol.Reader, seed uint64, storm bool, out *deviceOutcome) error {
	if err := l.pair.Reset(st.Channel, st.ARQ, seed); err != nil {
		return err
	}
	res, err := protocol.RunMutualAuthSession(dev, rdr, protocol.SessionOptions{
		Wire:        l.wire,
		ServerFirst: true,
	})
	if err != nil {
		return err
	}
	stats := l.pair.A().Stats()
	eJ, latS := st.SessionPrice(res.DeviceLedger, stats.PhyTxBits(), stats.PhyRxBits(), pm)
	out.energyPJ += int64(math.Round(eJ * 1e12))
	out.retries += int64(stats.Retries)
	if storm {
		out.stormSessions++
	} else {
		out.sessions++
	}
	if res.Completed {
		if storm {
			out.stormCompleted++
		} else {
			out.completed++
		}
		out.latencyUS = append(out.latencyUS, int64(math.Round(latS*1e6)))
	} else if res.AbortStage == protocol.StageLink {
		out.linkAborts++
	} else {
		out.otherAborts++
	}
	return nil
}

// device simulates one device end to end: specialize the design point
// (cache hit for all but the first device of a build identity),
// generate the device's keys once, run the duty-cycle sessions plus
// the re-auth storm, then price the battery.
func (l *lab) device(cfg Config, noms []design.Measurement, idx int) (deviceOutcome, error) {
	dp := cfg.deviceParams(idx)
	if err := l.cache.BuildInto(&l.stack, dp.point); err != nil {
		return deviceOutcome{}, err
	}
	st := &l.stack
	out := deviceOutcome{cohort: dp.cohort}
	pm := noms[dp.cohort]

	src := rng.NewDRBG(design.MixSeed(cfg.Seed, idx, streamParties)).Uint64
	mul := &protocol.SoftwareMultiplier{Curve: st.Curve, Rand: src}
	rdr, err := protocol.NewReader(st.Curve, mul, src)
	if err != nil {
		return deviceOutcome{}, err
	}
	dev, err := protocol.NewTag(st.Curve, mul, src, rdr.Pub)
	if err != nil {
		return deviceOutcome{}, err
	}
	rdr.Register(dev.Pub)

	for rep := 0; rep < cfg.SessionsPerDevice; rep++ {
		seed := design.MixSeed(cfg.Seed, idx, streamSession+rep)
		if err := l.session(st, pm, dev, rdr, seed, false, &out); err != nil {
			return deviceOutcome{}, err
		}
	}
	if cfg.Storm != nil {
		if err := l.cache.BuildInto(&l.storm, stormPoint(dp.point, cfg.Storm.LossBoost)); err != nil {
			return deviceOutcome{}, err
		}
		sst := &l.storm
		for rep := 0; rep < cfg.Storm.Sessions; rep++ {
			seed := design.MixSeed(cfg.Seed, idx, streamStorm+rep)
			if err := l.session(sst, pm, dev, rdr, seed, true, &out); err != nil {
				return deviceOutcome{}, err
			}
		}
	}

	if dp.point.Battery == design.BatteryPacemaker {
		co := cfg.Cohorts[dp.cohort]
		cell := st.Battery
		// Age-derate: self-discharge has already consumed part of the
		// cell (linear model, clamped at 90% depletion).
		derate := 1 - cell.SelfDischargePerYear*dp.ageYears
		if derate < 0.1 {
			derate = 0.1
		}
		cell.CapacityJ *= derate
		total := out.sessions + out.stormSessions
		meanJ := float64(out.energyPJ) / 1e12 / float64(total)
		lt, err := cell.SecurityLifetimeYears(battery.Workload{
			SessionsPerDay: co.SessionsPerDay,
			SessionEnergyJ: meanJ,
		})
		if err != nil {
			return deviceOutcome{}, err
		}
		if lt > lifetimeCapYears {
			lt = lifetimeCapYears
		}
		out.hasBattery = true
		out.lifetimeCY = int64(math.Round(lt * 100))
		out.outlivedSpec = dp.ageYears+lt >= co.SpecYears
	}
	return out, nil
}

// Run simulates the whole fleet and returns its report. The result is
// bit-identical for any Workers and Shards (integer accumulators;
// campaign.Run index-order folds), and a resumed run's equals an
// uninterrupted run's.
func Run(cfg Config, opt RunOptions) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Shards < 0 {
		return nil, fmt.Errorf("fleet: RunOptions.Shards = %d is negative (0 selects campaign.DefaultShards)", opt.Shards)
	}
	cache := design.NewCache()
	noms, err := nominals(cfg, cache)
	if err != nil {
		return nil, err
	}
	total := cfg.TotalDevices()

	workers := campaign.Workers(opt.Workers)
	labs := make([]*lab, workers)
	for w := range labs {
		labs[w] = newLab(cache)
	}

	lay := campaign.ShardingFor(0, total, opt.Shards)
	accums := make([]*Accum, lay.N)

	scfg := campaign.Config{
		Workers:  opt.Workers,
		Shards:   opt.Shards,
		Progress: opt.Progress,
		Metrics:  opt.Metrics,
		Ctx:      opt.Ctx,
	}
	if opt.CheckpointPath != "" {
		scfg.CheckpointEvery = opt.CheckpointEvery
		scfg.Checkpoint = func(cursors []int) error {
			return writeCheckpoint(opt.CheckpointPath, cfg, lay, cursors, accums)
		}
	}
	if opt.Resume {
		cursors, restored, err := readCheckpoint(opt.CheckpointPath, cfg, lay)
		if err != nil {
			return nil, err
		}
		scfg.Resume = cursors
		copy(accums, restored)
	}

	merged := newAccum(cfg)
	_, err = campaign.Run(0, total, scfg,
		func(idx int) (int, error) { return idx, nil },
		campaign.PerSample(func(w, idx int, _ int) (deviceOutcome, error) {
			return labs[w].device(cfg, noms, idx)
		}),
		func(s int) *Accum {
			if accums[s] == nil {
				accums[s] = newAccum(cfg)
			}
			return accums[s]
		},
		func(_ int, acc *Accum, _ int, _ int, out deviceOutcome) error {
			acc.fold(out)
			return nil
		},
		func(_ int, acc *Accum) error { return merged.Merge(acc) },
	)
	if err != nil {
		return nil, err
	}

	if opt.Metrics != nil {
		cs := cache.Stats()
		opt.Metrics.Counter("fleet_build_cache_hits").Add(cs.Hits)
		opt.Metrics.Counter("fleet_build_cache_misses").Add(cs.Misses)
		opt.Metrics.Gauge("fleet_build_cache_hit_rate").Set(cs.HitRate())
		opt.Metrics.Counter("fleet_devices").Add(int64(total))
	}
	return &Report{Config: cfg, Accum: merged, CacheStats: cache.Stats()}, nil
}
