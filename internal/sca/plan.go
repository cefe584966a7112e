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
// bookkeeping and the power evaluation disappear. The
// measurement-noise stream is re-aligned with power.Model.SkipCycles,
// which replays the skipped draws' consumption pattern exactly.
//
// The unexported Target.noPrologueSkip hook disables the quiet prefix
// so the tests can pin the planned window against the full evented
// pipeline.

// acqPlan is one campaign's acquisition plan over a fixed cycle
// window.
type acqPlan struct {
	start, end int
	// quiet is the cycle boundary below which the CPU executes without
	// event bookkeeping; equal to start when the plan skips the
	// prologue, 0 otherwise.
	quiet int
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
