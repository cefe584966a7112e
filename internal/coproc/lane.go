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
// generator clocking N chips out of reset, each with its own operand
// constants and its own probe channel. The per-trace CPU (cpu.go) is a
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

// maxDigitSize bounds Timing.DigitSize: a digit fits one word, spans at
// most two words of its operand and at most maxNibbles rows of the
// nibble table, and the accumulator shift acc·x^d needs one reduction
// fold.
const maxDigitSize = 61

// maxNibbles is the number of 4-bit nibbles in the widest digit: the
// row count of nibbleTable.
const maxNibbles = (maxDigitSize + 3) / 4

// topWordMask masks the valid bits of an element's top word (bits
// 128..162).
const topWordMask = 1<<(gf2m.M-128) - 1

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
	d := &laneProgram{src: p, timing: t, instrs: make([]laneInstr, len(p.Instrs))}
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
	}
	return d, nil
}

// LaneRun configures one lane of a batched execution: one trace's
// scalar, TRNG stream, operand constants and event sink.
type LaneRun struct {
	// Key is the lane's scalar.
	Key modn.Scalar
	// Rand feeds the lane's OpLoadRnd port (required for RPC programs).
	Rand func() uint64
	// Sink receives the lane's CycleEvents, one call per evented cycle,
	// in cycle order. The event struct is reused across cycles; the
	// sink must not retain it. A nil Sink discards events. The sink may
	// read the lane's registers (LaneCPU.Result) and inject faults
	// (LaneCPU.FlipBit): the event is delivered after the cycle's
	// architectural update, before the next cycle starts.
	Sink func(*CycleEvent)
	// Consts is the lane's operand constant ROM (see OperandConstants).
	Consts [NumConsts]gf2m.Element
	// MaskRand feeds the lane's mask-refresh TRNG port; required when
	// the LaneCPU runs Masked. It is deliberately a separate stream
	// from Rand, so the RPC mask re-derivation contract
	// (sca.Target.Masks) keeps holding on masked runs.
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
	masks    [writableSlots]gf2m.Element
	key      modn.Scalar
	rand     func() uint64
	maskRand func() uint64
	sink     func(*CycleEvent)
	ev       CycleEvent
}

// drawMaskElement draws one fresh 163-bit mask (three words). Zero is
// a legal mask: share refresh needs the masks uniform, not merely
// nonzero, or the excluded value itself becomes a first-order bias.
func (ls *laneState) drawMaskElement() gf2m.Element {
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
// MaxCycles, QuietCycles, Record and Masked (they are shared: the
// ladder's control flow is key- and data-independent, so every lane
// retires the same instruction at the same cycle), then call Run with
// one LaneRun per trace. The zero value is usable.
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
	// an observer that was not recording them anyway stays
	// bit-identical, because its noise draw for a cycle depends on the
	// cycle alone (trace.TakeBatch gives the sample at cycle c draw c
	// of its trace's noise stream, skipping the draws of the rest).
	// QuietCycles should lie on an instruction boundary
	// (Program.Spans/IterationWindow): an instruction straddling it runs
	// evented for all its cycles.
	QuietCycles int
	// Record, when non-nil, lists the only cycles that are evented, in
	// strictly ascending order (Run refuses any other). An instruction
	// holding no recorded cycle executes quietly, as before QuietCycles.
	// A MUL or SQR whose only recorded cycle is its writeback computes
	// its product with the one-shot field multiplier, makes the
	// quiet path's mask draws and emits just the writeback event. Any
	// other instruction holding a recorded cycle, and one straddling
	// MaxCycles, runs the evented pipeline and delivers only its
	// recorded cycles. Delivered events, architectural state and the
	// TRNG and mask draws are those of the fully evented run. This
	// extends the quiet prologue to every cycle no observer reads: a
	// CPA campaign records the writeback cycles its statistic
	// correlates (sca.Campaign.Cycles), a fault sweep its injection
	// cycle. Nil delivers every cycle from QuietCycles on.
	Record []int
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

	prog  *laneProgram
	lanes []laneState
	cycle int
	// tab holds the partial products of the MUL or SQR a lane is
	// streaming through the MALU; runMALULane rebuilds it per
	// instruction and lane.
	tab nibbleTable
	// While a lane runs an instruction holding recorded cycles, its
	// sink is swapped for filter (forwardRecorded, bound once), which
	// passes to out, the lane's own sink, only the cycles in only; next
	// indexes the first of them the lane has not yet reached.
	filter func(*CycleEvent)
	out    func(*CycleEvent)
	only   []int
	next   int
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

// Run executes p over the given lanes from the power-on state and
// returns the shared final cycle count: ErrStopped when MaxCycles ends
// the run early, nil when the program completes.
func (lc *LaneCPU) Run(p *Program, runs []LaneRun) (int, error) {
	if len(runs) == 0 {
		return 0, errors.New("coproc: lane run needs at least one lane")
	}
	for i := 1; i < len(lc.Record); i++ {
		if lc.Record[i] <= lc.Record[i-1] {
			return 0, fmt.Errorf("coproc: LaneCPU.Record is not strictly ascending: cycle %d at index %d follows %d",
				lc.Record[i], i, lc.Record[i-1])
		}
	}
	d, err := lc.decoded(p)
	if err != nil {
		return 0, err
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
		copy(ls.slots[slotConsts:], r.Consts[:])
	}
	lc.cycle = 0
	return lc.runLockstep(d)
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
		ls.slots[in.rd] = RandNonZeroElement(ls.rand)
	case OpCSwap:
		if ls.key.Bit(in.keyBit) == 1 {
			ls.slots[in.rd], ls.slots[in.ra] = ls.slots[in.ra], ls.slots[in.rd]
			if lc.Masked {
				ls.masks[in.rd], ls.masks[in.ra] = ls.masks[in.ra], ls.masks[in.rd]
			}
		}
		return nil
	case OpSqr, OpMul:
		lc.quietMALULane(ls, in)
		return nil
	}
	if lc.Masked {
		ls.masks[in.rd] = ls.drawMaskElement()
	}
	return nil
}

// quietMALULane retires a MUL or SQR without events: the one-shot
// field multiplier's product and, on masked runs, the digit pipeline's
// mask-draw schedule — one accumulator refresh per digit cycle
// (discarded: the accumulator mask dies with the instruction), then
// the writeback refresh that becomes the destination's mask.
func (lc *LaneCPU) quietMALULane(ls *laneState, in *laneInstr) {
	if in.op == OpSqr {
		ls.slots[in.rd] = gf2m.Sqr(ls.slots[in.ra])
	} else {
		ls.slots[in.rd] = gf2m.Mul(ls.slots[in.ra], ls.slots[in.rb])
	}
	if lc.Masked {
		for j := lc.Timing.Digits(); j > 0; j-- {
			ls.drawMaskElement()
		}
		ls.masks[in.rd] = ls.drawMaskElement()
	}
}

// writebackLane retires a MUL or SQR whose only recorded cycle is its
// writeback: quietMALULane's product and draws, then the writeback
// event runMALULane emits on the instruction's last cycle.
func (lc *LaneCPU) writebackLane(ls *laneState, idx int, in *laneInstr) {
	old, om := ls.slots[in.rd], ls.masks[in.rd]
	lc.quietMALULane(ls, in)
	v := ls.slots[in.rd]
	ls.resetEvent(idx, in)
	if lc.Masked {
		setMaskedWrite(&ls.ev, old, om, v, ls.masks[in.rd])
		ls.ev.RegsClocked = 2
	} else {
		ls.ev.WriteHD = gf2m.HammingDistance(old, v)
		ls.ev.Write01 = zeroToOne(old, v)
		ls.ev.RegsClocked = 1
	}
	ls.emit(lc.cycle + in.cost - 1)
}

// runLockstep executes the program on every lane. Per instruction,
// every lane retires all its cycles (lane-major order: the per-lane
// event streams are what must be ordered, and they are; interleaving
// across lanes is unobservable since each lane has its own sink), then
// the shared clock advances by the instruction cost.
func (lc *LaneCPU) runLockstep(d *laneProgram) (int, error) {
	rec := lc.Record
	for idx := range d.instrs {
		in := &d.instrs[idx]
		end := lc.cycle + in.cost
		stopped := lc.MaxCycles > 0 && end > lc.MaxCycles
		// win is the instruction's share of the record list.
		var win []int
		if lc.Record != nil {
			for len(rec) > 0 && rec[0] < lc.cycle {
				rec = rec[1:]
			}
			n := 0
			for n < len(rec) && rec[n] < end {
				n++
			}
			win = rec[:n]
		}
		switch {
		// Before QuietCycles, or no recorded cycle and retiring before
		// MaxCycles: architectural effects only.
		case lc.quietAt(lc.cycle, in.cost) || (lc.Record != nil && len(win) == 0 && !stopped):
			for l := range lc.lanes {
				if err := lc.quietExecLane(&lc.lanes[l], in); err != nil {
					return lc.cycle, err
				}
			}
			lc.cycle = end
			continue
		// Recorded only at a MUL or SQR writeback: one product, one event.
		case !stopped && len(win) == 1 && win[0] == end-1 && (in.op == OpMul || in.op == OpSqr):
			for l := range lc.lanes {
				lc.writebackLane(&lc.lanes[l], idx, in)
			}
			lc.cycle = end
			continue
		}
		// Number of event cycles this instruction retires before a
		// MaxCycles stop (same for every lane).
		budget := in.cost
		if stopped {
			budget = lc.MaxCycles - lc.cycle
		}
		for l := range lc.lanes {
			ls := &lc.lanes[l]
			var err error
			if lc.Record != nil && ls.sink != nil {
				err = lc.execRecorded(ls, idx, in, budget, win)
			} else {
				err = lc.execLane(ls, idx, in, budget)
			}
			if err != nil {
				return lc.cycle, err
			}
		}
		lc.cycle += budget
		if stopped {
			return lc.cycle, ErrStopped
		}
	}
	return lc.cycle, nil
}

// execRecorded is execLane delivering only the recorded cycles in win.
func (lc *LaneCPU) execRecorded(ls *laneState, idx int, in *laneInstr, budget int, win []int) error {
	if lc.filter == nil {
		lc.filter = lc.forwardRecorded
	}
	lc.out, lc.only, lc.next = ls.sink, win, 0
	ls.sink = lc.filter
	err := lc.execLane(ls, idx, in, budget)
	ls.sink = lc.out
	return err
}

// forwardRecorded is the filter sink. A lane emits every cycle of an
// instruction once, in ascending order, so one cursor into the
// instruction's recorded cycles tells them apart.
func (lc *LaneCPU) forwardRecorded(ev *CycleEvent) {
	if lc.next < len(lc.only) && lc.only[lc.next] == ev.Cycle {
		lc.next++
		lc.out(ev)
	}
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
			v = RandNonZeroElement(ls.rand)
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
// Each digit cycle computes the recurrence acc' = acc·x^d + a·digit
// mod f in scalar words: the shift and its one reduction fold are
// gf2m.ShlMod's, inlined, and the partial product a·digit is one XOR
// per 4-bit nibble of the digit from the nibble table built for a once
// per instruction — the rows the hardware MALU's digit-serial array
// selects. The accumulator values, and therefore the AccHD/Acc01
// switching activity derived from them, are those of the reference
// per-digit product (pinned by TestGoldenTraceHash,
// TestGoldenMALUDigitSizes and FuzzMALUMatchesReference).
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
	d := t.DigitSize
	tab := &lc.tab
	tab.build(a, d)
	// s and r are the accumulator shift's word-internal shift counts,
	// masked so the shifts compile without an out-of-range fix-up.
	s := uint(d) & 63
	r := (64 - s) & 63
	// The accumulator starts at zero; m0..m2 is its live share-1 value
	// (masked mode), zero with it and refreshed every digit cycle.
	var acc0, acc1, acc2, m0, m1, m2 uint64
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
		digit := extractDigit(&b, j, d)
		// acc·x^d mod f: the overflow h above x^163 has degree below
		// d <= 61, so one fold of h·(x^7+x^6+x^3+1) reduces it.
		c2 := acc2<<s | acc1>>r
		h := c2>>35 | acc2>>r<<29
		p0, p1, p2 := tab.product(digit, d)
		n0 := acc0<<s ^ h ^ h<<3 ^ h<<6 ^ h<<7 ^ p0
		n1 := acc1<<s | acc0>>r ^ h>>61 ^ h>>58 ^ h>>57 ^ p1
		n2 := c2&topWordMask ^ p2
		if lc.Masked {
			nm := ls.drawMaskElement()
			hd, up := flips(acc0^m0, acc1^m1, acc2^m2, n0^nm[0], n1^nm[1], n2^nm[2])
			mhd, mup := flips(m0, m1, m2, nm[0], nm[1], nm[2])
			ls.ev.AccHD, ls.ev.Acc01 = hd+mhd, up+mup
			// Each share's digit selects rows of its own MALU array.
			ls.ev.DigitHW = bits.OnesCount64(extractDigit(&maskedB, j, d)) +
				bits.OnesCount64(extractDigit(&mb, j, d))
			ls.ev.BusHW = ls.ev.DigitHW
			m0, m1, m2 = nm[0], nm[1], nm[2]
		} else {
			ls.ev.AccHD, ls.ev.Acc01 = flips(acc0, acc1, acc2, n0, n1, n2)
			ls.ev.DigitHW = bits.OnesCount64(digit)
			ls.ev.BusHW = ls.ev.DigitHW // the digit bus toggles with the operand
		}
		acc0, acc1, acc2 = n0, n1, n2
		ls.emit(cycle)
		cycle++
		budget--
	}
	if budget <= 0 {
		return
	}
	acc := gf2m.Element{acc0, acc1, acc2}
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

// nibbleTable holds the MALU's partial products for one multiplicand
// a: entry u of row k is a·u·x^(4k) mod f, for each of the sixteen
// polynomials u of degree below 4. The partial product a·digit of a
// d-bit digit is then the XOR of one entry per nibble of the digit.
// Entry 0 of every row is the zero product, which build never writes.
type nibbleTable [maxNibbles][16]gf2m.Element

// build fills the entries a d-bit digit can select: ⌈d/4⌉ rows, the
// last only as far as the digit's top bit reaches.
func (tab *nibbleTable) build(a gf2m.Element, d int) {
	s0, s1, s2 := a[0], a[1], a[2] // a·x^i
	for i := 0; i < d; i++ {
		row := &tab[i>>2&(maxNibbles-1)]
		bit := 1 << (i & 3)
		// The entries whose top set bit is bit: a·x^i plus each
		// entry below it.
		for u := 0; u < bit; u++ {
			row[bit|u] = gf2m.Element{s0 ^ row[u][0], s1 ^ row[u][1], s2 ^ row[u][2]}
		}
		// a·x^(i+1) = a·x^i·x mod f, with x^163 = x^7 + x^6 + x^3 + 1.
		top := s2 >> (gf2m.M - 1 - 128)
		s2 = (s2<<1 | s1>>63) & topWordMask
		s1 = s1<<1 | s0>>63
		s0 = s0<<1 ^ -top&0xc9
	}
}

// product returns the words of a·digit mod f for a d-bit digit from a
// table built for a at digit size d.
func (tab *nibbleTable) product(digit uint64, d int) (p0, p1, p2 uint64) {
	for k := 0; k < (d+3)>>2; k++ {
		e := &tab[k&(maxNibbles-1)][digit&15]
		p0, p1, p2 = p0^e[0], p1^e[1], p2^e[2]
		digit >>= 4
	}
	return p0, p1, p2
}

// flips returns the Hamming distance and the 0->1 transition count of
// the update (o0, o1, o2) -> (n0, n1, n2): gf2m.HammingDistance and
// zeroToOne on an element's words.
func flips(o0, o1, o2, n0, n1, n2 uint64) (hd, up int) {
	hd = bits.OnesCount64(o0^n0) + bits.OnesCount64(o1^n1) + bits.OnesCount64(o2^n2)
	up = bits.OnesCount64(^o0&n0) + bits.OnesCount64(^o1&n1) + bits.OnesCount64(^o2&n2)
	return hd, up
}

// extractDigit returns bits [j*d, (j+1)*d) of e as a small integer,
// reading whole words instead of single bits: the digit straddles at
// most two words since d <= 61.
func extractDigit(e *gf2m.Element, j, d int) uint64 {
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
