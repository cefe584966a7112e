package coproc

import (
	"fmt"
	"math"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// CycleEvent describes the microarchitectural activity of one clock
// cycle. The power model (internal/power) turns these counts into
// instantaneous power; the SCA layer correlates them with hypotheses.
// The same event struct is reused across cycles — probes must not
// retain it.
type CycleEvent struct {
	// Cycle is the global cycle index (0-based).
	Cycle int
	// InstrIndex is the index of the executing instruction.
	InstrIndex int
	// Op is the executing opcode.
	Op Op
	// Iteration is the ladder iteration (-1 outside the loop).
	Iteration int
	// KeyBit is the scalar bit index controlling this cycle's muxes,
	// -1 when the cycle is not key-controlled.
	KeyBit int
	// CtrlSel is the mux select value (the key bit) on key-controlled
	// cycles.
	CtrlSel uint
	// WriteHD / Write01 are the destination register's bit flips and
	// 0->1 transitions on this cycle (0 on non-writeback cycles).
	WriteHD, Write01 int
	// SwapHD is the Hamming distance between the two CSWAP operands.
	// With Fig. 3's register-updating scheme the swap is a logical
	// renaming through multiplexers and costs no register writes; a
	// naive design that physically exchanges the registers pays
	// 2*SwapHD data toggles whenever the swap fires. The power model
	// decides which design is being simulated.
	SwapHD int
	// BusHW is the Hamming weight presented on the operand buses.
	BusHW int
	// AccHD / Acc01 are the MALU accumulator's flips on digit cycles.
	AccHD, Acc01 int
	// DigitHW is the Hamming weight of the current multiplier digit.
	DigitHW int
	// RegsClocked is the number of 163-bit registers receiving a
	// clock edge this cycle (clock-tree load).
	RegsClocked int
}

// Probe receives one callback per simulated clock cycle.
type Probe func(ev *CycleEvent)

// CPU is the per-trace co-processor: a LaneCPU of width one. Every run
// starts from the power-on state (zeroed registers and RAM) or from a
// Snapshot. Zero value is not usable: construct with NewCPU.
type CPU struct {
	Timing Timing
	// Rand feeds the OpLoadRnd TRNG port. Required when running RPC
	// programs.
	Rand func() uint64
	// Probe, when non-nil, is invoked every cycle. Without a Probe the
	// program executes quietly (LaneCPU.QuietCycles): same
	// architectural result, no event bookkeeping.
	Probe Probe
	// Masked enables the first-order Boolean-masked datapath (see
	// LaneCPU.Masked).
	Masked bool
	// MaskRand feeds the mask-refresh TRNG port; required when Masked.
	MaskRand func() uint64

	consts [NumConsts]gf2m.Element
	lc     LaneCPU
	lane   [1]LaneRun
}

// NewCPU returns a CPU with the given timing.
func NewCPU(t Timing) *CPU {
	return &CPU{Timing: t}
}

// SetOperandConstants loads the constant ROM for a point
// multiplication on base point (x, y) over a curve with parameter b.
func (c *CPU) SetOperandConstants(x, b, y gf2m.Element) {
	c.consts = OperandConstants(x, b, y)
}

// exec runs p on the single lane, from the power-on state or resume.
// It executes quietly when asked to or when no Probe is attached.
func (c *CPU) exec(p *Program, key modn.Scalar, resume *Snapshot, quiet bool, atBoundary func(instr, cycle int) bool) (int, error) {
	c.lc.Timing, c.lc.Masked, c.lc.AtBoundary = c.Timing, c.Masked, atBoundary
	sink := c.Probe
	c.lc.QuietCycles = 0
	if quiet || sink == nil {
		c.lc.QuietCycles, sink = math.MaxInt, nil
	}
	c.lane[0] = LaneRun{Key: key, Rand: c.Rand, Sink: sink, Consts: c.consts, Resume: resume, MaskRand: c.MaskRand}
	return c.lc.Run(p, c.lane[:])
}

// Run executes the program against the given scalar and returns the
// total cycle count.
func (c *CPU) Run(p *Program, key modn.Scalar) (int, error) {
	return c.exec(p, key, nil, false, nil)
}

// RunCheckpointed executes the whole program like Run while capturing
// a Snapshot before every instruction for which keep(instrIndex,
// startCycle) returns true (keep == nil keeps every boundary). The
// snapshots are returned in execution order.
func (c *CPU) RunCheckpointed(p *Program, key modn.Scalar, keep func(instrIndex, startCycle int) bool) ([]Snapshot, int, error) {
	var snaps []Snapshot
	n, err := c.exec(p, key, nil, false, func(instr, cycle int) bool {
		if keep == nil || keep(instr, cycle) {
			snaps = append(snaps, c.lc.Snapshot(0))
		}
		return true
	})
	return snaps, n, err
}

// SnapshotPrefix executes only instructions [0, nInstr), quietly, and
// returns the Snapshot at that boundary — the checkpointed-acquisition
// prologue. A campaign over a fixed base point runs this once (with the
// campaign reference key) for the longest prefix that is
// TRNG-independent and whose key-bit decisions can be verified per
// trace (Program.PrefixBoundary computes that prefix), then every
// acquisition resumes from the snapshot instead of re-simulating the
// prefix.
func (c *CPU) SnapshotPrefix(p *Program, key modn.Scalar, nInstr int) (Snapshot, error) {
	if nInstr < 0 || nInstr > len(p.Instrs) {
		return Snapshot{}, fmt.Errorf("coproc: prefix boundary %d out of program range", nInstr)
	}
	if _, err := c.exec(p, key, nil, true, func(instr, _ int) bool { return instr < nInstr }); err != nil {
		return Snapshot{}, err
	}
	return c.lc.Snapshot(0), nil
}

// Resume restores a Snapshot and executes the rest of the program.
// The caller must install the same Timing (the snapshot's Cycle is
// checked against it) and a fresh TRNG stream seeded identically to
// the original run: Resume fast-forwards it by snap.RandDraws words so
// OpLoadRnd sees exactly the values the full run would. Cycle
// numbering is global, continuing from snap.Cycle.
func (c *CPU) Resume(p *Program, key modn.Scalar, snap Snapshot) (int, error) {
	return c.exec(p, key, &snap, false, nil)
}

// Reg returns working register r: the final value after a run, or the
// live value when called from the Probe.
func (c *CPU) Reg(r int) gf2m.Element { return c.lc.Result(0, uint8(r)) }

// FlipBit flips bit bit of working register reg. Called from the Probe
// it injects a single-bit fault at that cycle (see LaneCPU.FlipBit).
func (c *CPU) FlipBit(reg, bit int) { c.lc.FlipBit(0, reg, bit) }

// ResultX returns the affine x result register after a completed run.
func (c *CPU) ResultX(p *Program) gf2m.Element { return c.Reg(int(p.ResultX)) }

// ResultY returns the affine y result register after a completed run
// of a y-recovery program.
func (c *CPU) ResultY(p *Program) gf2m.Element { return c.Reg(int(p.ResultY)) }

// RandNonZeroElement draws a nonzero field element exactly the way the
// OpLoadRnd port does: three words from src, normalized, redrawn on
// zero. The SCA layer's "randomness known to the attacker" white-box
// mode re-derives the RPC masks with this function.
func RandNonZeroElement(src func() uint64) gf2m.Element {
	for {
		e := gf2m.FromWords(src(), src(), src())
		if !e.IsZero() {
			return e
		}
	}
}

// Snapshot captures the full architectural state of a run at an
// instruction boundary: the register file, constant ROM, scratch RAM,
// the global cycle counter, and how many TRNG words the run has drawn
// so far. Resuming from a Snapshot with the same program, timing,
// scalar and TRNG stream reproduces the remainder of the run
// bit-identically — the fault-sweep engine uses this to simulate only
// the suffix of the program after each injection point instead of
// re-running the ~86k cycle prefix for every point in the fault space.
type Snapshot struct {
	// Instr is the index of the next instruction to execute.
	Instr int
	// Cycle is the global cycle counter at the boundary: the static
	// start cycle of Instr under the snapshotted run's Timing.
	Cycle int
	// RandDraws is the number of TRNG words drawn so far; Resume
	// fast-forwards a fresh stream by this many draws.
	RandDraws int
	// MaskDraws is the number of mask-TRNG words drawn so far on a
	// masked run (0 on unmasked runs); Resume fast-forwards MaskRand by
	// this many draws.
	MaskDraws int

	Regs   [NumRegs]gf2m.Element
	Consts [NumConsts]gf2m.Element
	RAM    [NumRAM]gf2m.Element

	// Masks / RAMMasks are the live share-1 values of a masked run
	// (zero on unmasked runs).
	Masks    [NumRegs]gf2m.Element
	RAMMasks [NumRAM]gf2m.Element
}
