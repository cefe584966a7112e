package sca

// Acquisition plans — the quiet prologue.
//
// A windowed acquisition records cycles [start, end), yet the old path
// event-simulated every cycle from 0: the ladder prologue and all
// iterations above the window ran through the full pipeline (cycle
// events, power-model evaluation, noise draws) only for the collector
// to discard them. An acqPlan removes that work while keeping the
// recorded samples bit-identical: cycles [0, start) execute
// architecturally but emit no events (coproc.LaneCPU.QuietCycles). The
// field values are exactly the evented pipeline's; only the per-cycle
// bookkeeping and the power evaluation disappear. The measurement
// noise needs no re-alignment: the collectors store noise-free base
// energies during the run, and the batch's noise pass after it
// (trace.TakeBatch) gives the sample at cycle c draw c of its trace's
// stream, skipping the draws of every cycle it did not keep for all
// lanes at once (rng.SkipLanes).
//
// A CPA campaign goes one step further: it records only the cycles
// its statistic reads (Campaign.Cycles, the writeback cycle of every
// register write in the attacked iterations). The plan hands that list
// to the CPU (coproc.LaneCPU.Record), which events nothing else, and to
// the collector (trace.Collector.Record), which keeps the base energy
// of each recorded cycle; the noise pass skips the draws of the cycles
// in between. A trace then holds one sample per recorded cycle,
// bit-identical to the full evented run's sample at that cycle.
//
// The unexported Target.noPrologueSkip hook disables both the quiet
// prefix and the record list, so the tests can pin the planned
// acquisition against the full evented pipeline.

// acqPlan is one campaign's acquisition plan over a fixed cycle
// window.
type acqPlan struct {
	start, end int
	// quiet is the cycle boundary below which the CPU executes without
	// event bookkeeping; equal to start when the plan skips the
	// prologue, 0 otherwise.
	quiet int
	// record, when non-nil, lists the only cycles acquired (ascending);
	// each trace then holds one sample per entry instead of the window.
	record []int
	// met is the campaign's acquisition-counter bundle, resolved once
	// at plan construction (zero value when Target.Metrics is nil —
	// fully inert).
	met acqMetrics
}

// planWindow builds the plan for window [start, end).
func (t *Target) planWindow(start, end int) *acqPlan {
	p := &acqPlan{start: start, end: end, met: t.acqMetrics()}
	if !t.noPrologueSkip && start > 0 {
		p.quiet = start
	}
	return p
}

// planCycles builds the plan for a campaign that keeps only the given
// cycles of window [start, end).
func (t *Target) planCycles(start, end int, cycles []int) *acqPlan {
	p := t.planWindow(start, end)
	if !t.noPrologueSkip {
		p.record = cycles
	}
	return p
}
