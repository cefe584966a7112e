package sca

import (
	"errors"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/power"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

// Lane-batched acquisition: one decoded instruction stream driving N
// traces at once (coproc.LaneCPU), amortizing the interpreter's decode
// and dispatch across the batch. Each lane owns the full per-trace
// device state — TRNG DRBG, power model with its noise substream,
// collector — re-seeded per trace from the trace index, so a lane's
// recorded trace does not depend on which batch or lane retired it.
// The lanes share the record list, so after the run one noise pass
// (trace.TakeBatch) skips each gap in all lanes' noise streams at once;
// the skip leaves every stream where its own skip would.
// Target.Lanes <= 1 runs width-1 batches; coproc's lane property tests
// pin every lane's stream independent of the batch width and of its
// position in the batch. Every campaign statistic is therefore
// bit-identical at any lane count; Target.Lanes merely selects the
// throughput trade-off.

// laneSlot is one lane's reusable per-trace device state (the LaneCPU
// is shared by the whole batch). The func fields are bound once at
// construction so the steady-state batch loop allocates nothing per
// trace.
type laneSlot struct {
	drbg     *rng.DRBG
	maskDrbg *rng.DRBG
	model    *power.Model
	col      *trace.Collector
	randFn   func() uint64
	maskFn   func() uint64
	sinkFn   coproc.Probe
}

func (t *Target) newLaneSlot() *laneSlot {
	s := &laneSlot{
		drbg:     rng.NewDRBG(0),
		maskDrbg: rng.NewDRBG(0),
		model:    power.NewModel(t.Power),
	}
	s.col = trace.NewCollector(s.model, 0, 0)
	s.randFn = s.drbg.Uint64
	s.maskFn = s.maskDrbg.Uint64
	s.sinkFn = s.col.LaneSink()
	return s
}

// laneScratch is one worker's batched acquisition state: a shared
// LaneCPU plus one laneSlot per lane, and the slots' collectors in lane
// order for the noise pass.
type laneScratch struct {
	lc    *coproc.LaneCPU
	slots []*laneSlot
	cols  []*trace.Collector
	runs  []coproc.LaneRun
}

func (t *Target) newLaneScratch(lanes int) *laneScratch {
	s := &laneScratch{
		lc:    coproc.NewLaneCPU(t.Timing),
		slots: make([]*laneSlot, lanes),
		cols:  make([]*trace.Collector, lanes),
		runs:  make([]coproc.LaneRun, lanes),
	}
	for i := range s.slots {
		s.slots[i] = t.newLaneSlot()
		s.cols[i] = s.slots[i].col
	}
	return s
}

// acquireBatch runs one batch of acquisitions under a plan: per lane
// the per-trace re-seeding and window setup, then one LaneCPU run
// retires the whole batch in lockstep, and one noise pass over the
// batch (trace.TakeBatch) turns the recorded base energies into
// samples, skipping the unrecorded cycles' draws for all lanes at once.
func (t *Target) acquireBatch(s *laneScratch, plan *acqPlan, jobs []acqJob, out []trace.Trace) error {
	n := len(jobs)
	for i := 0; i < n; i++ {
		j := &jobs[i]
		sl := s.slots[i]
		sl.drbg.Reseed(t.traceSeed(j.dev))
		pcfg := t.Power
		pcfg.Seed ^= (j.dev + 1) * 0xbf58476d1ce4e5b9
		sl.model.Reinit(pcfg)
		sl.col.Start, sl.col.End, sl.col.Record = plan.start, plan.end, plan.record
		sl.col.Begin()
		r := &s.runs[i]
		*r = coproc.LaneRun{Key: j.key, Rand: sl.randFn, Sink: sl.sinkFn,
			Consts: coproc.OperandConstants(j.point.X, t.Curve.B, j.point.Y)}
		if t.Masked {
			sl.maskDrbg.Reseed(t.maskSeed(j.dev))
			r.MaskRand = sl.maskFn
		}
	}
	lc := s.lc
	lc.Timing = t.Timing
	lc.Masked = t.Masked
	lc.MaxCycles = 0
	if plan.end > 0 {
		lc.MaxCycles = plan.end
	}
	lc.QuietCycles = plan.quiet
	lc.Record = plan.record
	if _, err := lc.Run(t.prog, s.runs[:n]); err != nil && !errors.Is(err, coproc.ErrStopped) {
		return err
	}
	trace.TakeBatch(s.cols[:n], out[:n])
	for i := 0; i < n; i++ {
		plan.met.traces.Inc()
		plan.met.prologueSkipped.Add(int64(plan.quiet))
	}
	return nil
}

// acquirerPool returns the engine's batch acquirer executing a plan: a
// pool of worker-owned lane scratch states, lazily constructed.
func (t *Target) acquirerPool(plan *acqPlan) campaign.AcquireBatchFunc[acqJob, trace.Trace] {
	lanes := campaign.Lanes(t.Lanes)
	scratch := make([]*laneScratch, campaign.Workers(t.Workers))
	return func(worker, start int, jobs []acqJob, out []trace.Trace) error {
		s := scratch[worker]
		if s == nil {
			s = t.newLaneScratch(lanes)
			scratch[worker] = s
		}
		return t.acquireBatch(s, plan, jobs, out)
	}
}
