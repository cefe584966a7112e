// Package sca implements the side-channel evaluation workflow of the
// paper's Fig. 4 — chip under study → instantaneous power acquisition
// → statistical analysis → key recovery — against the co-processor
// simulator:
//
//   - CPA/DPA (§7): iterative key-bit recovery from first-order
//     correlation between predicted ladder intermediates and measured
//     power, in the three settings the paper evaluates (no RPC;
//     RPC with attacker-known randomness; RPC with secret randomness);
//   - SPA (§6/§7): single-trace classification of the conditional-swap
//     control activity, with and without the circuit-level
//     countermeasures, plus the profiled variant that exploits the
//     residual layout imbalance;
//   - timing analysis (§7): cycle-count key dependence of the constant
//     ladder vs the double-and-add baseline;
//   - TVLA: fixed-vs-random Welch t-test leakage assessment.
package sca

import (
	"context"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/obs"
	"medsec/internal/power"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

// LabNoiseSigma is the measurement-noise floor (as a fraction of the
// nominal 59.47 pJ cycle energy) of the Fig. 4 acquisition setup. It
// is calibrated so that the CPA against the RPC-disabled configuration
// needs on the order of 200 traces, the figure the paper reports.
const LabNoiseSigma = 1.0

// AlgorithmOneScalar draws a uniform scalar in the fixed-length form
// of the paper's Algorithm 1, k = (1, k_{t-2}, ..., k_0): bit 162
// clear (every reduced scalar's is) and bit 161 — the conventional
// leading one — set. Devices process scalars in this form so that the
// position of the leading one, which the complete ladder would
// otherwise expose through its degenerate (O, P) prefix state, is
// public by construction.
func AlgorithmOneScalar(curve *ec.Curve, src func() uint64) modn.Scalar {
	for {
		k := curve.Order.Rand(src)
		if k.Bit(162) == 1 {
			continue
		}
		k[161>>6] |= 1 << (161 & 63)
		if !k.IsZero() && k.Cmp(curve.Order.N()) < 0 {
			return k
		}
	}
}

// Target is the device under attack: a co-processor with a fixed
// secret scalar, a microcode variant, and a circuit configuration.
type Target struct {
	Curve  *ec.Curve
	Key    modn.Scalar
	Opts   coproc.ProgramOptions
	Timing coproc.Timing
	Power  power.Config
	// TRNGSeed seeds the device-internal mask generator. Each trace
	// uses an independent per-trace substream.
	TRNGSeed uint64
	// Masked runs the co-processor with the first-order Boolean masking
	// countermeasure enabled (coproc.LaneCPU.Masked): every register and
	// RAM word is carried as two shares refreshed from a dedicated TRNG
	// substream, so single-sample (first-order) statistics go flat and
	// the evaluation must move to the second-order attacks (TVLA2,
	// CPAOptions.Preprocess). The mask stream is derived per trace from
	// TRNGSeed with a mixing constant distinct from the device-data
	// stream's (maskSeed vs traceSeed), so enabling masking changes
	// neither the RPC masks Masks replays nor any architectural value.
	Masked bool
	// Workers sets the acquisition parallelism: campaigns fan
	// simulator passes over this many workers (<= 0 selects
	// GOMAXPROCS, capped at campaign.MaxWorkers). Results are
	// bit-identical for any value — per-trace randomness derives from
	// the trace index, and statistics consume traces in index order.
	Workers int
	// Lanes selects lane-batched acquisition: campaigns execute this
	// many traces per interpreter pass (coproc.LaneCPU), amortizing
	// microcode decode and dispatch across the batch. <= 1 runs width-1
	// batches; design.DefaultLanes is the stack default. Campaign
	// results are bit-identical for any lane count — batching changes
	// only how many traces one interpreter pass retires, never the
	// per-trace data streams or the statistics' fold order.
	Lanes int
	// Shards selects the reduction sharding of the bounded statistics
	// campaigns (TVLA, leakage maps, SPA averaging, template
	// profiling, campaign acquisition): 0 selects
	// campaign.DefaultShards, and a positive value is part of the
	// experiment definition (statistics agree across shard counts only
	// to floating-point rounding, though never across worker counts,
	// which are always bit-identical at fixed Shards). Negative values
	// are refused. Early-stop campaigns (TVLAUntil, TVLA2Until) always
	// fold serially, as one shard.
	Shards int
	// Progress, when non-nil, is invoked as campaign traces are folded
	// with the cumulative trace count (monotone; it may skip counts) —
	// wire it to a progress reporter for the long acquisitions.
	Progress func(done int)
	// Metrics, when non-nil, receives acquisition instrumentation:
	// counters sca_traces_acquired / sca_prologue_cycles_skipped /
	// sca_checkpoint_resumes / sca_quiet_runs /
	// sca_earlystop_checks, TVLA gauges (sca_tvla_pairs,
	// sca_tvla_max_t, sca_tvla_early_stopped), plus the campaign_*
	// engine instruments (the registry is forwarded into
	// campaign.Config). Metrics observe, never perturb: acquisitions
	// are bit-identical with or without a registry, and the nil default
	// costs zero allocations per trace (the campaign AllocsPerRun pin
	// covers this path).
	Metrics *obs.Registry
	// Ctx, when non-nil, makes every campaign over this target
	// interruptible: on cancellation (SIGINT/SIGTERM in the CLIs) the
	// engine drains its worker pool, writes a final checkpoint if Ckpt
	// is configured, and the campaign returns campaign.ErrInterrupted.
	// A nil Ctx (the default) is never checked.
	Ctx context.Context
	// Ckpt, when non-nil, enables durable checkpoint/resume for the
	// checkpoint-aware campaigns (TVLA / TVLAUntil, TracesToSuccess).
	// See CampaignCheckpoint.
	Ckpt *CampaignCheckpoint

	prog *coproc.Program
	// noPrologueSkip disables the checkpointed/quiet acquisition
	// prologue (see plan.go), so every trace re-simulates all cycles
	// before its window through the full evented pipeline. A test hook:
	// the tests pin the planned window bit-identical against it.
	noPrologueSkip bool
}

// NewTarget builds a target device.
func NewTarget(curve *ec.Curve, key modn.Scalar, opts coproc.ProgramOptions, tim coproc.Timing, pcfg power.Config, trngSeed uint64) *Target {
	return &Target{
		Curve:    curve,
		Key:      key,
		Opts:     opts,
		Timing:   tim,
		Power:    pcfg,
		TRNGSeed: trngSeed,
		prog:     coproc.BuildLadderProgram(opts),
	}
}

// Program returns the target's microcode.
func (t *Target) Program() *coproc.Program { return t.prog }

func (t *Target) traceSeed(idx uint64) uint64 {
	return t.TRNGSeed ^ (idx+1)*0x9e3779b97f4a7c15
}

// maskSeed derives trace idx's Boolean-masking TRNG substream. The
// mixing constant differs from traceSeed's so the share refresh stream
// is independent of the device-data stream: a masked run draws exactly
// the same RPC masks and points as the unmasked run of the same index.
func (t *Target) maskSeed(idx uint64) uint64 {
	return t.TRNGSeed ^ 0xd1342543de82ef95 ^ (idx+1)*0x94d049bb133111eb
}

// Masks replays the device TRNG for trace idx and returns the RPC
// masks (λ, µ) it loaded — the "countermeasure enabled but the
// randomness is known" white-box mode of §7. Meaningless when the
// program does not use RPC.
func (t *Target) Masks(idx uint64) (lambda, mu gf2m.Element) {
	d := rng.NewDRBG(t.traceSeed(idx))
	lambda = coproc.RandNonZeroElement(d.Uint64)
	mu = coproc.RandNonZeroElement(d.Uint64)
	return lambda, mu
}

// Window exposes the acquisition cycle window covering ladder
// iterations firstIter..lastIter — callers use it to convert trace
// counts into simulated-cycle throughput figures.
func (t *Target) Window(firstIter, lastIter int) (start, end int) {
	return t.prog.IterationWindow(t.Timing, firstIter, lastIter)
}

// Campaign is an acquisition campaign: N traces over a fixed cycle
// window with known (attacker-chosen or at least attacker-visible)
// input points.
type Campaign struct {
	Target *Target
	Set    *trace.Set
	Points []ec.Point
	// Start/End are the acquisition cycle window.
	Start, End int
	// FirstIter/LastIter are the ladder iterations the window covers
	// (FirstIter is processed first, i.e. the larger index).
	FirstIter, LastIter int
}

// NewCampaign returns an empty campaign over the given ladder
// iteration window; grow it with ExtendCampaign.
func (t *Target) NewCampaign(firstIter, lastIter int) *Campaign {
	start, end := t.prog.IterationWindow(t.Timing, firstIter, lastIter)
	return &Campaign{
		Target:    t,
		Set:       &trace.Set{},
		Start:     start,
		End:       end,
		FirstIter: firstIter,
		LastIter:  lastIter,
	}
}

// AcquireCampaign collects n traces with fresh random base points,
// windowed to ladder iterations firstIter..lastIter (inclusive,
// firstIter >= lastIter). pointSrc drives the attacker's point
// selection. Acquisition fans out over Target.Workers simulator
// instances; the resulting campaign is bit-identical for any worker
// count (see internal/campaign's determinism contract).
func (t *Target) AcquireCampaign(n int, firstIter, lastIter int, pointSrc func() uint64) (*Campaign, error) {
	c := t.NewCampaign(firstIter, lastIter)
	if err := t.ExtendCampaign(c, n, pointSrc); err != nil {
		return nil, err
	}
	return c, nil
}

// ExtendCampaign grows c to n traces total, drawing the additional
// base points from where pointSrc left off. The traces-to-success
// searches use this to acquire incrementally up to each checkpoint
// size instead of over-acquiring the maximum campaign up front;
// because trace i is a pure function of index i, the extended campaign
// is identical to one acquired at size n in a single call.
//
// The campaign retains every trace, so the "reduction" is a positional
// write: each completed acquisition lands directly in its own slot of
// the preallocated set from the worker goroutine — trivially
// order-independent. The base points vary per trace, so the
// acquisition plan is quiet-prologue only (no checkpoint; see
// plan.go). Target.Progress reports the campaign's cumulative size.
func (t *Target) ExtendCampaign(c *Campaign, n int, pointSrc func() uint64) error {
	from := c.Set.Len()
	if n <= from {
		return nil
	}
	plan := t.planWindow(c.Start, c.End)
	prepare := func(idx int) (acqJob, error) {
		return acqJob{key: t.Key, point: t.Curve.RandomPoint(pointSrc), dev: uint64(idx)}, nil
	}
	cfg := t.engineConfig()
	if t.Progress != nil {
		cfg.Progress = func(done int) { t.Progress(from + done) }
	}
	c.Set.Traces = append(c.Set.Traces, make([]trace.Trace, n-from)...)
	c.Points = append(c.Points, make([]ec.Point, n-from)...)
	_, err := runCampaign(t, from, n, cfg, plan, prepare,
		func(shard int) struct{} { return struct{}{} },
		func(shard int, _ struct{}, idx int, j acqJob, tr trace.Trace) error {
			c.Set.Traces[idx] = tr
			c.Points[idx] = j.point
			return nil
		},
		func(shard int, _ struct{}) error { return nil })
	if err != nil {
		// Leave the campaign exactly as it was before the failed (or
		// interrupted) extension; partially filled slots are dropped —
		// extensions checkpoint only at size boundaries
		// (TracesToSuccess).
		c.Set.Traces = c.Set.Traces[:from]
		c.Points = c.Points[:from]
		return err
	}
	return nil
}

// PrologueCyclesSkipped reports how many leading cycles per trace the
// campaign's acquisition plan removes from the evented simulation
// pipeline (0 when the window starts at cycle 0) — campaign throughput accounting for progress headers.
func (c *Campaign) PrologueCyclesSkipped() int {
	return c.Target.planWindow(c.Start, c.End).skippedCycles()
}

// Prefix returns a view of the campaign's first n traces — the
// sub-campaign evaluated at a traces-to-success checkpoint. The view
// shares trace storage with the parent (see trace.Set.Prefix for the
// aliasing contract).
func (c *Campaign) Prefix(n int) *Campaign {
	if n > len(c.Points) {
		n = len(c.Points)
	}
	return &Campaign{
		Target:    c.Target,
		Set:       c.Set.Prefix(n),
		Points:    c.Points[:n:n],
		Start:     c.Start,
		End:       c.End,
		FirstIter: c.FirstIter,
		LastIter:  c.LastIter,
	}
}
