package sca

import (
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
)

// Acquisition plans — the checkpointed/quiet prologue.
//
// A windowed acquisition records cycles [start, end), yet the old path
// event-simulated every cycle from 0: the ladder prologue and all
// iterations above the window ran through the full pipeline (cycle
// events, power-model evaluation, noise draws) only for the collector
// to discard them. An acqPlan removes that work in two layers while
// keeping the recorded samples bit-identical:
//
//   - quiet prefix: cycles [0, start) execute architecturally but emit
//     no events (coproc.LaneCPU.QuietCycles). The field values are
//     exactly the evented pipeline's; only the per-cycle bookkeeping and
//     the power evaluation disappear. The measurement-noise stream is
//     re-aligned with power.Model.SkipCycles, which replays the
//     skipped draws' consumption pattern exactly;
//   - checkpoint: for a campaign over a FIXED base point, the longest
//     prefix that draws no TRNG words (Program.PrefixBoundary) is
//     simulated once per campaign with a reference key and captured as
//     a coproc.Snapshot. Every acquisition whose key agrees with the
//     reference on the prefix's CSWAP bits Resumes from the snapshot —
//     those cycles are not simulated at all, the hardware analogy
//     being a scan-chain preload of the datapath state. Keys that
//     disagree (TVLA's random set below the shared Algorithm 1 bits)
//     fall back to the quiet full run, so the check is per trace and
//     exact.
//
// Snapshot state depends on the base point (operand constants), so
// campaigns with per-trace random points (CPA) get quiet-only plans.
// The unexported Target.noPrologueSkip hook disables both layers so
// the tests can pin the planned window against the full evented
// pipeline.

// acqPlan is one campaign's acquisition plan over a fixed cycle
// window.
type acqPlan struct {
	start, end int
	// quiet is the cycle boundary below which the CPU executes without
	// event bookkeeping; equal to start when the plan skips the
	// prologue, 0 otherwise.
	quiet int
	// snap, when non-nil, is the checkpoint at the end of the longest
	// TRNG-independent instruction prefix, captured with the plan's
	// fixed base point and reference key.
	snap *coproc.Snapshot
	// keyBits are the scalar bit indices the prefix's CSWAPs consulted;
	// refBits are the reference key's values there. A per-trace key may
	// use snap iff it matches refBits exactly.
	keyBits []int
	refBits []uint
	// met is the campaign's acquisition-counter bundle, resolved once
	// at plan construction (zero value when Target.Metrics is nil —
	// fully inert).
	met acqMetrics
}

// planWindow builds the point-independent plan for window [start, end):
// quiet prologue only, no checkpoint. This is the plan for campaigns
// whose base point varies per trace.
func (t *Target) planWindow(start, end int) *acqPlan {
	p := &acqPlan{start: start, end: end, met: t.acqMetrics()}
	if !t.noPrologueSkip && start > 0 {
		p.quiet = start
	}
	return p
}

// planFixedPoint builds the plan for a fixed-base-point campaign,
// adding the prologue checkpoint when the program admits one (non-RPC
// microcode; RPC draws TRNG masks in its first instruction, so its
// TRNG-independent prefix is empty and the quiet layer does all the
// work).
func (t *Target) planFixedPoint(pt ec.Point, refKey modn.Scalar, start, end int) (*acqPlan, error) {
	plan := t.planWindow(start, end)
	if plan.quiet == 0 {
		return plan, nil
	}
	if t.Masked {
		// The Boolean-masking share refresh draws from a per-trace mask
		// substream starting at cycle 0, so no two traces agree on the
		// prefix state even under the same key and point — a shared
		// snapshot would freeze one trace's masks into every resume and
		// break bit-identity with the quiet path. The quiet layer still
		// applies: it re-executes the prefix per trace, drawing that
		// trace's own masks (coproc replays the draw schedule exactly).
		return plan, nil
	}
	nInstr, cycle, keyBits := t.prog.PrefixBoundary(t.Timing, start)
	if cycle == 0 {
		return plan, nil
	}
	cpu := coproc.NewCPU(t.Timing)
	cpu.SetOperandConstants(pt.X, t.Curve.B, pt.Y)
	snap, err := cpu.SnapshotPrefix(t.prog, refKey, nInstr)
	if err != nil {
		return nil, err
	}
	plan.snap = &snap
	plan.keyBits = keyBits
	plan.refBits = make([]uint, len(keyBits))
	for i, kb := range keyBits {
		plan.refBits[i] = refKey.Bit(kb)
	}
	return plan, nil
}

// usable reports whether the checkpoint applies to an acquisition with
// the given key: every CSWAP decision inside the snapshotted prefix
// must match the reference run bit for bit.
func (p *acqPlan) usable(key modn.Scalar) bool {
	if p.snap == nil {
		return false
	}
	for i, kb := range p.keyBits {
		if key.Bit(kb) != p.refBits[i] {
			return false
		}
	}
	return true
}

// skippedCycles reports how many leading cycles per trace the plan
// removes from the evented simulation pipeline (whether
// checkpoint-restored or quietly executed).
func (p *acqPlan) skippedCycles() int { return p.quiet }
