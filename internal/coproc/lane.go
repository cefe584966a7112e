package coproc

import (
	"errors"
	"fmt"

	"math/bits"

	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// This file is the co-processor's interpreter: one decoded instruction
// stream driving N independent traces ("lanes") in lockstep. Campaigns
// run thousands of identical instruction sequences that differ only in
// data (keys, base points, TRNG masks, noise), so the decode, dispatch
// and per-instruction bookkeeping — identical across traces — can be
// paid once per instruction instead of once per trace. This is the
// software analogue of a multi-DUT acquisition harness: one pattern
// generator clocking N chips, each with its own scan-chain preloaded
// state and its own probe channel. The per-trace CPU (cpu.go) is a
// width-1 view of the same machinery.
//
// The contract is strict bit-identity per lane: every lane's CycleEvent
// stream (field values, cycle numbering, ordering) and architectural
// state are independent of the batch width and of the lane's position
// in the batch, pinned per opcode and for full point multiplications by
// the lane_test.go property tests, and against the original serial
// interpreter by the golden hashes.

// numSlots is the size of the unified operand file a lane carries:
// registers, scratch RAM, then the constant ROM. Decode resolves the
// sparse ISA addresses (registers at 0, constants at 8, RAM at 16)
// into this dense space once per program, so the execution loop indexes
// a flat array with no address arithmetic or validity checks.
const (
	slotRegs   = 0
	slotRAM    = slotRegs + NumRegs
	slotConsts = slotRAM + NumRAM
	numSlots   = slotConsts + NumConsts
	// writableSlots bounds the slots an instruction may write: the
	// constant ROM sits above it.
	writableSlots = slotConsts
)

// maxDigitSize bounds Timing.DigitSize; shift tables are stack arrays
// of this size.
const maxDigitSize = 61

// ErrStopped is returned when LaneCPU.MaxCycles aborted the run
// (expected during SCA trace acquisition).
var ErrStopped = errors.New("coproc: execution stopped at MaxCycles")

// laneInstr is one decoded instruction: operands resolved to dense
// slot indices, static cycle cost attached.
type laneInstr struct {
	op         Op
	rd, ra, rb uint8
	keyBit     int
	iteration  int
	cost       int
}

// laneProgram is a decoded program cached on the LaneCPU.
type laneProgram struct {
	src    *Program
	timing Timing
	instrs []laneInstr
	// starts[i] is the static start cycle of instruction i;
	// starts[len(instrs)] is the program's cycle count.
	starts []int
}

// decodeSlot resolves an ISA operand address to a dense slot index.
func decodeSlot(a uint8) (uint8, error) {
	switch {
	case a < NumRegs:
		return slotRegs + a, nil
	case a >= constBase && a < constBase+NumConsts:
		return slotConsts + (a - constBase), nil
	case a >= ramBase && a < ramBase+NumRAM:
		return slotRAM + (a - ramBase), nil
	default:
		return 0, fmt.Errorf("coproc: invalid operand address %d", a)
	}
}

func decodeProgram(p *Program, t Timing) (*laneProgram, error) {
	if t.DigitSize <= 0 || t.DigitSize > maxDigitSize {
		return nil, fmt.Errorf("coproc: unsupported digit size %d", t.DigitSize)
	}
	d := &laneProgram{src: p, timing: t, instrs: make([]laneInstr, len(p.Instrs)), starts: make([]int, len(p.Instrs)+1)}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		li := laneInstr{op: in.Op, keyBit: in.KeyBit, iteration: in.Iteration, cost: t.InstrCycles(in.Op)}
		var err error
		switch in.Op {
		case OpNop:
		case OpMove, OpLoadConst, OpLoadRnd:
			if li.rd, err = decodeSlot(in.Rd); err == nil && in.Op != OpLoadRnd {
				li.ra, err = decodeSlot(in.Ra)
			}
		case OpAdd, OpMul:
			if li.rd, err = decodeSlot(in.Rd); err == nil {
				if li.ra, err = decodeSlot(in.Ra); err == nil {
					li.rb, err = decodeSlot(in.Rb)
				}
			}
		case OpSqr:
			if li.rd, err = decodeSlot(in.Rd); err == nil {
				li.ra, err = decodeSlot(in.Ra)
			}
		case OpCSwap:
			if in.KeyBit < 0 {
				err = errors.New("coproc: CSWAP without key bit")
			} else if li.rd, err = decodeSlot(in.Rd); err == nil {
				li.ra, err = decodeSlot(in.Ra)
			}
		default:
			err = fmt.Errorf("coproc: unknown opcode %v", in.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("coproc: decode instr %d: %w", i, err)
		}
		switch in.Op {
		case OpNop:
		case OpCSwap:
			if li.rd >= writableSlots || li.ra >= writableSlots {
				return nil, fmt.Errorf("coproc: decode instr %d: CSWAP on read-only operand", i)
			}
		default:
			if li.rd >= writableSlots {
				return nil, fmt.Errorf("coproc: decode instr %d: write to read-only operand", i)
			}
		}
		d.instrs[i] = li
		d.starts[i+1] = d.starts[i] + li.cost
	}
	return d, nil
}

// LaneRun configures one lane of a batched execution: one trace's
// scalar, TRNG stream, operand constants, event sink and optional
// starting snapshot.
type LaneRun struct {
	// Key is the lane's scalar.
	Key modn.Scalar
	// Rand feeds the lane's OpLoadRnd port (required for RPC programs
	// and for resuming randomized runs).
	Rand func() uint64
	// Sink receives the lane's CycleEvents, one call per evented cycle,
	// in cycle order. The event struct is reused across cycles; the
	// sink must not retain it. A nil Sink discards events. The sink may
	// read the lane's registers (LaneCPU.Result) and inject faults
	// (LaneCPU.FlipBit): the event is delivered after the cycle's
	// architectural update, before the next cycle starts.
	Sink func(*CycleEvent)
	// Consts is the lane's operand constant ROM (see OperandConstants).
	// Ignored when Resume is set (the snapshot carries the ROM).
	Consts [NumConsts]gf2m.Element
	// Resume, when non-nil, starts the lane from a snapshot instead of
	// the power-on state. Its Cycle must be the static start cycle of
	// its Instr under the LaneCPU's Timing. Lanes may start at
	// different instructions only inside the quiet prefix (each replays
	// its own way to the latest start); past it, every lane must start
	// at the same instruction.
	Resume *Snapshot
	// MaskRand feeds the lane's mask-refresh TRNG port; required when
	// the LaneCPU runs Masked. It is deliberately a separate stream
	// from Rand, so the RPC mask re-derivation contract
	// (sca.Target.Masks, Snapshot.RandDraws) keeps holding on masked
	// runs.
	MaskRand func() uint64
}

// OperandConstants builds the constant-ROM image for a point
// multiplication on base point (x, y) over a curve with parameter b.
func OperandConstants(x, b, y gf2m.Element) [NumConsts]gf2m.Element {
	return [NumConsts]gf2m.Element{x, b, y, gf2m.One(), gf2m.Zero()}
}

// laneState is the per-lane architectural and delivery state.
type laneState struct {
	slots [numSlots]gf2m.Element
	// masks carries the share-1 value of each writable slot on masked
	// runs (the constant ROM above writableSlots is public and rides
	// the operand bus unmasked).
	masks     [writableSlots]gf2m.Element
	key       modn.Scalar
	rand      func() uint64
	maskRand  func() uint64
	sink      func(*CycleEvent)
	randDraws int
	maskDraws int
	ev        CycleEvent
}

// drawRand feeds OpLoadRnd while counting TRNG words so a Snapshot can
// record how far into the stream the run has advanced.
func (ls *laneState) drawRand() uint64 {
	ls.randDraws++
	return ls.rand()
}

// drawMaskElement draws one fresh 163-bit mask (three words, counted so
// a Snapshot can fast-forward the stream on resume). Zero is a legal
// mask: share refresh needs the masks uniform, not merely nonzero, or
// the excluded value itself becomes a first-order bias.
func (ls *laneState) drawMaskElement() gf2m.Element {
	ls.maskDraws += 3
	return gf2m.FromWords(ls.maskRand(), ls.maskRand(), ls.maskRand())
}

// maskOfSlot returns the current mask of a dense slot (zero for the
// constant ROM).
func (ls *laneState) maskOfSlot(a uint8) gf2m.Element {
	if a < writableSlots {
		return ls.masks[a]
	}
	return gf2m.Element{}
}

// LaneCPU executes a program over N lanes at once. Configure Timing,
// MaxCycles, QuietCycles and Masked (they are shared: the ladder's
// control flow is key- and data-independent, so every lane retires the
// same instruction at the same cycle), then call Run with one LaneRun
// per trace. The zero value is usable.
type LaneCPU struct {
	Timing Timing
	// MaxCycles stops execution early when positive — the SCA
	// acquisition path uses it to capture only the first ladder
	// iterations instead of simulating all ~86k cycles per trace. An
	// instruction straddling MaxCycles emits its cycles up to the stop
	// and withholds its architectural write.
	MaxCycles int
	// QuietCycles, when positive, executes every instruction that
	// retires entirely before this cycle (and before MaxCycles) in
	// "quiet" mode: the architectural effects (register writes, TRNG
	// and mask draws, MALU results) are identical, but no CycleEvents
	// are computed or delivered. Quiet MUL/SQR use the one-shot field
	// multiplier instead of the digit pipeline — same result element,
	// none of the per-digit switching-activity bookkeeping. This is the
	// acquisition fast path for the cycles before a trace window starts:
	// an observer that was not recording them anyway only needs its
	// noise stream advanced (power.Model.SkipCycles) to stay
	// bit-identical. QuietCycles should lie on an instruction boundary
	// (Program.Spans/IterationWindow): an instruction straddling it runs
	// evented for all its cycles.
	QuietCycles int
	// Masked enables the first-order Boolean-masked datapath for every
	// lane: each register-file and RAM location is carried as two shares
	// (value XOR mask, mask), with the mask refreshed from the lane's
	// MaskRand stream on every writeback and on every MALU digit cycle.
	// The architectural state still holds the raw values — share
	// splitting only changes the switching activity reported in
	// CycleEvents, which is summed over both share datapaths (and
	// RegsClocked, which doubles: both share registers take the clock
	// edge). Cycle counts, Rand draws and results are identical to the
	// unmasked datapath; only the power side channel changes.
	Masked bool
	// AtBoundary, when non-nil, is called at every instruction boundary
	// of the lockstep phase, before instruction instr executes at cycle
	// cycle. It may capture lanes with Snapshot; returning false ends
	// the run cleanly at that boundary.
	AtBoundary func(instr, cycle int) bool

	prog  *laneProgram
	lanes []laneState
	cycle int
	// next is the instruction the lanes execute next: the resume point
	// a Snapshot records.
	next int
}

// NewLaneCPU returns a batch runner with the given timing.
func NewLaneCPU(t Timing) *LaneCPU { return &LaneCPU{Timing: t} }

// Result returns lane l's register file slot for an ISA register
// address (e.g. Program.ResultX): the final value after a run, or the
// live value when called from the lane's Sink.
func (lc *LaneCPU) Result(l int, reg uint8) gf2m.Element {
	return lc.lanes[l].slots[slotRegs+reg]
}

// FlipBit flips bit bit of working register reg in lane l — a single
// event upset. Called from the lane's Sink it injects the fault at that
// cycle: the instructions still to read the register see the flipped
// value, exactly like a glitch on the register file.
func (lc *LaneCPU) FlipBit(l, reg, bit int) {
	r := &lc.lanes[l].slots[slotRegs+reg]
	*r = r.SetBit(bit, r.Bit(bit)^1)
}

// Snapshot captures lane l's architectural state at the current
// instruction boundary: from AtBoundary, or after a Run that completed
// or stopped at a boundary.
func (lc *LaneCPU) Snapshot(l int) Snapshot {
	ls := &lc.lanes[l]
	s := Snapshot{Instr: lc.next, Cycle: lc.cycle, RandDraws: ls.randDraws, MaskDraws: ls.maskDraws}
	copy(s.Regs[:], ls.slots[slotRegs:])
	copy(s.RAM[:], ls.slots[slotRAM:])
	copy(s.Consts[:], ls.slots[slotConsts:])
	copy(s.Masks[:], ls.masks[slotRegs:])
	copy(s.RAMMasks[:], ls.masks[slotRAM:])
	return s
}

// decoded returns the cached decode of p, refreshing it when the
// program or timing changed since the last Run (the campaign scratch
// reuses one LaneCPU across thousands of batches of the same program).
func (lc *LaneCPU) decoded(p *Program) (*laneProgram, error) {
	if lc.prog != nil && lc.prog.src == p && lc.prog.timing == lc.Timing {
		return lc.prog, nil
	}
	d, err := decodeProgram(p, lc.Timing)
	if err != nil {
		return nil, err
	}
	lc.prog = d
	return d, nil
}

// quietAt reports whether an instruction of the given cost starting at
// cycle executes quietly: it retires entirely before QuietCycles and
// before MaxCycles.
func (lc *LaneCPU) quietAt(cycle, cost int) bool {
	return lc.QuietCycles > 0 && cycle < lc.QuietCycles && cycle+cost <= lc.QuietCycles &&
		(lc.MaxCycles <= 0 || cycle+cost <= lc.MaxCycles)
}

// Run executes p over the given lanes and returns the shared final
// cycle count: ErrStopped when MaxCycles ends the run early, nil when
// the program completes or AtBoundary ends it at a boundary.
func (lc *LaneCPU) Run(p *Program, runs []LaneRun) (int, error) {
	if len(runs) == 0 {
		return 0, errors.New("coproc: lane run needs at least one lane")
	}
	d, err := lc.decoded(p)
	if err != nil {
		return 0, err
	}
	// The lockstep phase starts at the latest snapshot instruction;
	// lanes that start earlier replay the gap independently, which is
	// only possible while the gap is quiet.
	start := 0
	for l := range runs {
		snap := runs[l].Resume
		if snap == nil {
			continue
		}
		if snap.Instr < 0 || snap.Instr > len(d.instrs) {
			return 0, fmt.Errorf("coproc: lane %d snapshot instruction %d out of program range", l, snap.Instr)
		}
		if want := d.starts[snap.Instr]; snap.Cycle != want {
			return 0, fmt.Errorf("coproc: lane %d snapshot Cycle %d is not the start cycle %d of instruction %d under digit size %d (snapshot taken under another Timing?)",
				l, snap.Cycle, want, snap.Instr, lc.Timing.DigitSize)
		}
		start = max(start, snap.Instr)
	}

	if cap(lc.lanes) < len(runs) {
		lc.lanes = make([]laneState, len(runs))
	}
	lc.lanes = lc.lanes[:len(runs)]
	for l := range runs {
		r := &runs[l]
		ls := &lc.lanes[l]
		*ls = laneState{key: r.Key, rand: r.Rand, sink: r.Sink, maskRand: r.MaskRand}
		if lc.Masked && ls.maskRand == nil {
			return 0, fmt.Errorf("coproc: masked execution requires a mask TRNG source on lane %d (MaskRand)", l)
		}
		from := 0
		if snap := r.Resume; snap != nil {
			if snap.RandDraws > 0 && ls.rand == nil {
				return 0, errors.New("coproc: resume of a randomized run requires a TRNG source")
			}
			if snap.MaskDraws > 0 && ls.maskRand == nil {
				return 0, errors.New("coproc: resume of a masked run requires a mask TRNG source")
			}
			copy(ls.slots[slotRegs:slotRegs+NumRegs], snap.Regs[:])
			copy(ls.slots[slotRAM:slotRAM+NumRAM], snap.RAM[:])
			copy(ls.slots[slotConsts:slotConsts+NumConsts], snap.Consts[:])
			copy(ls.masks[slotRegs:slotRegs+NumRegs], snap.Masks[:])
			copy(ls.masks[slotRAM:slotRAM+NumRAM], snap.RAMMasks[:])
			for i := 0; i < snap.RandDraws; i++ {
				ls.rand()
			}
			ls.randDraws = snap.RandDraws
			for i := 0; i < snap.MaskDraws; i++ {
				ls.maskRand()
			}
			ls.maskDraws = snap.MaskDraws
			from = snap.Instr
		} else {
			copy(ls.slots[slotConsts:slotConsts+NumConsts], r.Consts[:])
		}
		if from < start && !lc.quietAt(d.starts[start-1], d.instrs[start-1].cost) {
			return 0, fmt.Errorf("coproc: lane %d starts at instruction %d, outside the quiet prefix before the lockstep start %d", l, from, start)
		}
		for idx := from; idx < start; idx++ {
			if err := lc.quietExecLane(ls, &d.instrs[idx]); err != nil {
				return 0, err
			}
		}
	}
	lc.cycle = d.starts[start]
	return lc.runLockstep(d, start)
}

// quietExecLane performs one instruction's architectural effects on a
// lane without any event bookkeeping — the QuietCycles fast path.
// Register writes, conditional swaps, TRNG draws and (on masked runs)
// mask-stream draws and mask-slot updates are exactly those of the
// evented path; MUL/SQR results come from the one-shot field
// multiplier, which the MALU cross-check tests pin to the digit-serial
// pipeline's result element.
func (lc *LaneCPU) quietExecLane(ls *laneState, in *laneInstr) error {
	switch in.op {
	case OpNop:
		return nil
	case OpAdd:
		ls.slots[in.rd] = gf2m.Add(ls.slots[in.ra], ls.slots[in.rb])
	case OpMove, OpLoadConst:
		ls.slots[in.rd] = ls.slots[in.ra]
	case OpLoadRnd:
		if ls.rand == nil {
			return errors.New("coproc: OpLoadRnd requires a TRNG source")
		}
		ls.slots[in.rd] = RandNonZeroElement(ls.drawRand)
	case OpCSwap:
		if ls.key.Bit(in.keyBit) == 1 {
			ls.slots[in.rd], ls.slots[in.ra] = ls.slots[in.ra], ls.slots[in.rd]
			if lc.Masked {
				ls.masks[in.rd], ls.masks[in.ra] = ls.masks[in.ra], ls.masks[in.rd]
			}
		}
		return nil
	case OpSqr:
		ls.slots[in.rd] = gf2m.Sqr(ls.slots[in.ra])
	case OpMul:
		ls.slots[in.rd] = gf2m.Mul(ls.slots[in.ra], ls.slots[in.rb])
	}
	if lc.Masked {
		if in.op == OpMul || in.op == OpSqr {
			// Match the evented digit pipeline's draw schedule: one
			// accumulator refresh per digit cycle (discarded — the
			// accumulator mask dies with the instruction), then the
			// writeback refresh that becomes the destination's mask.
			for j := lc.Timing.Digits(); j > 0; j-- {
				ls.drawMaskElement()
			}
		}
		ls.masks[in.rd] = ls.drawMaskElement()
	}
	return nil
}

// runLockstep executes instructions [from, end) on every lane. Per
// instruction, every lane retires all its cycles (lane-major order:
// the per-lane event streams are what must be ordered, and they are;
// interleaving across lanes is unobservable since each lane has its
// own sink), then the shared clock advances by the instruction cost.
func (lc *LaneCPU) runLockstep(d *laneProgram, from int) (int, error) {
	for idx := from; idx < len(d.instrs); idx++ {
		lc.next = idx
		if lc.AtBoundary != nil && !lc.AtBoundary(idx, lc.cycle) {
			return lc.cycle, nil
		}
		in := &d.instrs[idx]
		if lc.quietAt(lc.cycle, in.cost) {
			for l := range lc.lanes {
				if err := lc.quietExecLane(&lc.lanes[l], in); err != nil {
					return lc.cycle, err
				}
			}
			lc.cycle += in.cost
			continue
		}
		// Number of event cycles this instruction retires before a
		// MaxCycles stop (same for every lane).
		budget := in.cost
		stopped := false
		if lc.MaxCycles > 0 && lc.cycle+budget > lc.MaxCycles {
			budget = lc.MaxCycles - lc.cycle
			stopped = true
		}
		for l := range lc.lanes {
			if err := lc.execLane(&lc.lanes[l], idx, in, budget); err != nil {
				return lc.cycle, err
			}
		}
		lc.cycle += budget
		if stopped {
			return lc.cycle, ErrStopped
		}
	}
	lc.next = len(d.instrs)
	return lc.cycle, nil
}

// emit stamps the cycle number and delivers the lane's event.
func (ls *laneState) emit(cycle int) {
	ls.ev.Cycle = cycle
	if ls.sink != nil {
		ls.sink(&ls.ev)
	}
}

// resetEvent clears the per-cycle fields and stamps instruction
// context.
func (ls *laneState) resetEvent(idx int, in *laneInstr) {
	ls.ev = CycleEvent{
		InstrIndex: idx,
		Op:         in.op,
		Iteration:  in.iteration,
		KeyBit:     -1,
	}
}

// execLane retires one instruction on one lane, emitting exactly
// budget cycles (budget < cost only when MaxCycles truncates the
// instruction, in which case the architectural write is withheld).
func (lc *LaneCPU) execLane(ls *laneState, idx int, in *laneInstr, budget int) error {
	switch in.op {
	case OpNop:
		if budget > 0 {
			ls.resetEvent(idx, in)
			ls.emit(lc.cycle)
		}

	case OpAdd, OpMove, OpLoadConst, OpLoadRnd:
		if budget <= 0 {
			return nil
		}
		var v gf2m.Element
		var busHW int
		switch in.op {
		case OpAdd:
			a, b := ls.slots[in.ra], ls.slots[in.rb]
			v = gf2m.Add(a, b)
			if lc.Masked {
				busHW = maskedBusHW(a, ls.maskOfSlot(in.ra)) + maskedBusHW(b, ls.maskOfSlot(in.rb))
			} else {
				busHW = a.Weight() + b.Weight()
			}
		case OpMove, OpLoadConst:
			v = ls.slots[in.ra]
			if lc.Masked {
				busHW = maskedBusHW(v, ls.maskOfSlot(in.ra))
			} else {
				busHW = v.Weight()
			}
		case OpLoadRnd:
			if ls.rand == nil {
				return errors.New("coproc: OpLoadRnd requires a TRNG source")
			}
			v = RandNonZeroElement(ls.drawRand)
			// The TRNG port delivers the raw word stream; share
			// splitting happens at the register-file write below.
			busHW = v.Weight()
		}
		old := ls.slots[in.rd]
		ls.slots[in.rd] = v
		ls.resetEvent(idx, in)
		if lc.Masked {
			nm := ls.drawMaskElement()
			setMaskedWrite(&ls.ev, old, ls.masks[in.rd], v, nm)
			ls.masks[in.rd] = nm
			ls.ev.RegsClocked = 2 // both share registers
		} else {
			ls.ev.WriteHD = gf2m.HammingDistance(old, v)
			ls.ev.Write01 = zeroToOne(old, v)
			ls.ev.RegsClocked = 1
		}
		ls.ev.BusHW = busHW
		ls.emit(lc.cycle)

	case OpCSwap:
		if budget <= 0 {
			return nil
		}
		sel := ls.key.Bit(in.keyBit)
		a, b := ls.slots[in.rd], ls.slots[in.ra]
		ls.resetEvent(idx, in)
		ls.ev.KeyBit = in.keyBit
		ls.ev.CtrlSel = sel
		if lc.Masked {
			// The swap muxes operate per share; masks travel with their
			// values (no refresh — CSWAP draws nothing, so the mask-draw
			// schedule stays key-independent).
			ma, mb := ls.masks[in.rd], ls.masks[in.ra]
			ls.ev.SwapHD = gf2m.HammingDistance(gf2m.Add(a, ma), gf2m.Add(b, mb)) +
				gf2m.HammingDistance(ma, mb)
			ls.ev.RegsClocked = 4
		} else {
			ls.ev.SwapHD = gf2m.HammingDistance(a, b)
			ls.ev.RegsClocked = 2
		}
		if sel == 1 {
			// Functionally the swap always takes effect; whether it is a
			// physical register exchange or a mux renaming is a
			// circuit-level choice the power model charges for.
			ls.slots[in.rd], ls.slots[in.ra] = b, a
			if lc.Masked {
				ls.masks[in.rd], ls.masks[in.ra] = ls.masks[in.ra], ls.masks[in.rd]
			}
		}
		ls.emit(lc.cycle)

	case OpMul, OpSqr:
		a := ls.slots[in.ra]
		b := a
		if in.op == OpMul {
			b = ls.slots[in.rb]
		}
		lc.runMALULane(ls, idx, in, a, b, budget)
	}
	return nil
}

// runMALULane executes a MUL or SQR through the digit-serial
// multiplier: the operand-load cycle(s), one cycle per digit (MSD
// first), then the writeback cycle.
//
// The per-digit recurrence acc' = acc·x^d + a·digit is computed from a
// shift table S[i] = a·x^i mod f precomputed once per instruction —
// exactly the partial products the hardware MALU wires into its
// digit-serial array — so each digit cycle pays one accumulator shift
// plus at most d table XORs instead of rebuilding every shifted
// operand. The accumulator values, and therefore the AccHD/Acc01
// switching activity derived from them, are bit-identical to the
// reference per-digit product (pinned by TestGoldenTraceHash and the
// MALU cross-check tests).
func (lc *LaneCPU) runMALULane(ls *laneState, idx int, in *laneInstr, a, b gf2m.Element, budget int) {
	t := lc.Timing
	// Masked mode: the digit-serial array is duplicated per share, the
	// accumulator mask is refreshed every digit cycle, and the operand
	// shares are derived from the raw slots plus the live mask slots.
	// SQR squares a single operand so both shares take in.ra's mask
	// (in.rb is not decoded for OpSqr). All activity fields sum both
	// shares.
	var ma, mb, maskedA, maskedB gf2m.Element
	if lc.Masked {
		ma = ls.maskOfSlot(in.ra)
		if in.op == OpSqr {
			mb = ma
		} else {
			mb = ls.maskOfSlot(in.rb)
		}
		maskedA, maskedB = gf2m.Add(a, ma), gf2m.Add(b, mb)
	}
	cycle := lc.cycle
	// Operand-load cycles (MulOverhead-1 of them; the final overhead
	// cycle is the writeback).
	for k := 0; k < t.MulOverhead-1; k++ {
		if budget <= 0 {
			return
		}
		ls.resetEvent(idx, in)
		if lc.Masked {
			ls.ev.BusHW = maskedA.Weight() + ma.Weight() + maskedB.Weight() + mb.Weight()
			ls.ev.RegsClocked = 4 // both shares' operand latches
		} else {
			ls.ev.BusHW = a.Weight() + b.Weight()
			ls.ev.RegsClocked = 2 // MALU operand latches
		}
		ls.emit(cycle)
		cycle++
		budget--
	}
	var shifts [maxDigitSize]gf2m.Element
	shifts[0] = a
	for i := 1; i < t.DigitSize; i++ {
		shifts[i] = gf2m.ShlMod(shifts[i-1], 1)
	}
	var acc gf2m.Element
	// accMask is the accumulator's live share-1 value (masked mode);
	// starts at zero with the zeroed accumulator and is refreshed from
	// the mask stream every digit cycle.
	var accMask gf2m.Element
	d := t.DigitSize
	// One reset serves the whole digit loop: every cycle emits the same
	// constant fields (instr, op, iteration, RegsClocked, zeroed
	// write/swap counters) and only the accumulator fields vary, so
	// updating those in place delivers the identical event stream
	// without rewriting the struct each cycle.
	ls.resetEvent(idx, in)
	if lc.Masked {
		ls.ev.RegsClocked = 2 // both accumulator shares
	} else {
		ls.ev.RegsClocked = 1
	}
	for j := t.Digits() - 1; j >= 0; j-- {
		if budget <= 0 {
			return
		}
		digit := extractDigit(b, j, d)
		// Partial product a·digit as an XOR over the shift table (the
		// set bits of the digit select rows of the MALU array).
		next := gf2m.ShlMod(acc, uint(d))
		for dg := digit; dg != 0; dg &= dg - 1 {
			next = gf2m.Add(next, shifts[bits.TrailingZeros64(dg)])
		}
		if lc.Masked {
			nm := ls.drawMaskElement()
			ls.ev.AccHD = gf2m.HammingDistance(gf2m.Add(acc, accMask), gf2m.Add(next, nm)) +
				gf2m.HammingDistance(accMask, nm)
			ls.ev.Acc01 = zeroToOne(gf2m.Add(acc, accMask), gf2m.Add(next, nm)) +
				zeroToOne(accMask, nm)
			// Each share's digit selects rows of its own MALU array.
			ls.ev.DigitHW = bits.OnesCount64(extractDigit(maskedB, j, d)) +
				bits.OnesCount64(extractDigit(mb, j, d))
			ls.ev.BusHW = ls.ev.DigitHW
			accMask = nm
		} else {
			ls.ev.AccHD = gf2m.HammingDistance(acc, next)
			ls.ev.Acc01 = zeroToOne(acc, next)
			ls.ev.DigitHW = bits.OnesCount64(digit)
			ls.ev.BusHW = ls.ev.DigitHW // the digit bus toggles with the operand
		}
		acc = next
		ls.emit(cycle)
		cycle++
		budget--
	}
	if budget <= 0 {
		return
	}
	old := ls.slots[in.rd]
	ls.resetEvent(idx, in)
	if lc.Masked {
		nm := ls.drawMaskElement()
		setMaskedWrite(&ls.ev, old, ls.masks[in.rd], acc, nm)
		ls.masks[in.rd] = nm
		ls.ev.RegsClocked = 2
	} else {
		ls.ev.WriteHD = gf2m.HammingDistance(old, acc)
		ls.ev.Write01 = zeroToOne(old, acc)
		ls.ev.RegsClocked = 1
	}
	ls.slots[in.rd] = acc
	ls.emit(cycle)
}

// extractDigit returns bits [j*d, (j+1)*d) of e as a small integer,
// reading whole words instead of single bits: the digit straddles at
// most two words since d <= 61.
func extractDigit(e gf2m.Element, j, d int) uint64 {
	lo := j * d
	w, s := lo>>6, uint(lo)&63
	v := e[w] >> s
	if s+uint(d) > 64 && w+1 < gf2m.Words {
		v |= e[w+1] << (64 - s)
	}
	return v & (1<<uint(d) - 1)
}

// zeroToOne counts 0->1 transitions in the update old -> new: the
// transitions a static CMOS gate draws supply current for.
func zeroToOne(old, new gf2m.Element) int {
	n := 0
	for i := 0; i < gf2m.Words; i++ {
		n += bits.OnesCount64(^old[i] & new[i])
	}
	return n
}

// maskedBusHW is the operand-bus Hamming weight of value v carried as
// the share pair (v XOR m, m): both share buses present their weight.
func maskedBusHW(v, m gf2m.Element) int {
	return gf2m.Add(v, m).Weight() + m.Weight()
}

// setMaskedWrite fills the write-port activity fields for the masked
// update (old under mask om) -> (v under mask nm), summing the flips of
// both share registers. With nm drawn fresh and uniform, the expected
// activity is constant (each share transition is uniformly random), so
// the first-order mean carries no data — the data survives only in the
// joint distribution of the two shares, i.e. in the variance, which is
// what second-order (centered-product) statistics recover.
func setMaskedWrite(ev *CycleEvent, old, om, v, nm gf2m.Element) {
	os0, ns0 := gf2m.Add(old, om), gf2m.Add(v, nm)
	ev.WriteHD = gf2m.HammingDistance(os0, ns0) + gf2m.HammingDistance(om, nm)
	ev.Write01 = zeroToOne(os0, ns0) + zeroToOne(om, nm)
}
