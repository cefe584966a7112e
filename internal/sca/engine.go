package sca

import (
	"fmt"

	"medsec/internal/campaign"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/trace"
)

// This file glues the target device onto the campaign engine
// (internal/campaign). The engine's determinism contract maps onto the
// acquisition model like this:
//
//   - everything a trace depends on besides its index is packed into
//     an acqJob by a prepare callback that runs serially in index
//     order — so shared attacker streams (random TVLA keys) are drawn
//     in a fixed order; a CPA campaign's points are drawn in index
//     order before the engine runs (ExtendCampaign), and its prepare
//     only reads them;
//   - the device-side randomness (TRNG masks, measurement noise) never
//     depends on acquisition order: Target derives both purely from
//     the trace index (traceSeed / Power.Seed mixing);
//   - each worker owns one lane bank (lanes.go), re-seeded per batch.
//
// Consequently a campaign is bit-identical for any worker or lane
// count.

// acqJob is one prepared acquisition: the scalar, the base point, and
// the device/trace index dev that selects the TRNG and noise
// substreams (it can differ from the engine index, e.g. SPA offsets
// the victim's stream).
type acqJob struct {
	key   modn.Scalar
	point ec.Point
	dev   uint64
}

// engineConfig builds the campaign.Config for this target.
func (t *Target) engineConfig() campaign.Config {
	return campaign.Config{Workers: t.Workers, Shards: t.Shards, Lanes: t.Lanes, Progress: t.Progress, Metrics: t.Metrics, Ctx: t.Ctx}
}

// runCampaign runs one campaign leg over a plan on the engine, with the
// target's lane-batched acquirer. (A free function because Go methods
// cannot take the accumulator type parameter.)
func runCampaign[A any](t *Target, from, to int, cfg campaign.Config, plan *acqPlan,
	prepare campaign.PrepareFunc[acqJob],
	newShard func(shard int) A,
	fold func(shard int, acc A, idx int, job acqJob, out trace.Trace) error,
	merge func(shard int, acc A) error) (int, error) {
	if t.Shards < 0 {
		return 0, fmt.Errorf("sca: Target.Shards = %d is negative (0 selects campaign.DefaultShards)", t.Shards)
	}
	return campaign.Run(from, to, cfg, prepare, t.acquirerPool(plan), newShard, fold, merge)
}

// acqMetrics is the per-campaign bundle of acquisition counters,
// resolved once from Target.Metrics when a plan is built. The zero
// value (nil counters, the Metrics == nil default) is fully inert:
// every obs method is a nil-safe no-op costing zero allocations, so
// the steady-state acquisition loop stays on its pinned alloc budget.
type acqMetrics struct {
	// traces counts completed acquisitions (fan-in over all workers).
	traces *obs.Counter
	// prologueSkipped accumulates the leading cycles per trace the
	// quiet prefix removed from the evented pipeline.
	prologueSkipped *obs.Counter
}

func (t *Target) acqMetrics() acqMetrics {
	return acqMetrics{
		traces:          t.Metrics.Counter("sca_traces_acquired"),
		prologueSkipped: t.Metrics.Counter("sca_prologue_cycles_skipped"),
	}
}

// fixedRandomPrepare builds the alternating fixed-key/random-key job
// stream the TVLA-style campaigns use: even engine indices acquire
// under the target's key, odd ones under a fresh scalar from randKey,
// drawn in index order.
func (t *Target) fixedRandomPrepare(p ec.Point, randKey func() modn.Scalar) campaign.PrepareFunc[acqJob] {
	return func(idx int) (acqJob, error) {
		j := acqJob{point: p, dev: uint64(idx)}
		if idx%2 == 0 {
			j.key = t.Key
		} else {
			j.key = randKey()
		}
		return j, nil
	}
}

// welchShardFold folds the alternating fixed/random stream into a
// Welch accumulator: even indices into set A, odd into set B. The
// trace is not retained, so its pooled buffers go back for reuse.
func welchShardFold[P any, PP trace.Population[P]](shard int, acc *trace.Welch[P, PP], idx int, j acqJob, tr trace.Trace) error {
	var err error
	if idx%2 == 0 {
		err = acc.AddA(tr.Samples)
	} else {
		err = acc.AddB(tr.Samples)
	}
	tr.Release()
	return err
}
