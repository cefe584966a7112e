// Package coproc is a cycle-accurate instruction-level simulator of
// the paper's programmable elliptic-curve co-processor: a 6×163-bit
// register file, a digit-serial modular ALU (MALU) for GF(2^163), a
// small constant ROM and scratch RAM, and a microcoded Montgomery
// powering ladder whose only key dependence is the select line of the
// conditional-swap multiplexers (paper Fig. 3).
//
// The simulator is the substitute for the UMC 0.13 µm prototype: it
// reproduces the architecture-level quantities every number in the
// paper derives from — cycle counts (hence latency and throughput at a
// given clock), register/bus/datapath switching activity (hence power,
// through internal/power), and the key-dependent control activity that
// the circuit-level countermeasures do or do not balance.
package coproc

import "fmt"

// Op is a co-processor instruction opcode.
type Op uint8

// Instruction opcodes. ADD, MOVE, CSWAP and the loads are single-cycle
// register-file operations; MUL and SQR stream through the digit-serial
// MALU. SQR is routed through the MALU exactly like MUL ([10]'s MALU
// has no dedicated squarer), which is what makes the 9.8 PM/s figure
// come out.
const (
	OpNop Op = iota
	// OpAdd: rd = ra + rb (163-bit XOR array, 1 cycle).
	OpAdd
	// OpMul: rd = ra * rb via the digit-serial MALU.
	OpMul
	// OpSqr: rd = ra * ra via the MALU (same latency as OpMul).
	OpSqr
	// OpMove: rd = ra.
	OpMove
	// OpCSwap: swap registers rd and ra iff the controlling key bit is
	// set. This is the ladder's only key-dependent dataflow; its mux
	// select lines are the circuit-level battleground of Fig. 3.
	OpCSwap
	// OpLoadRnd: rd = fresh nonzero random field element (the RPC
	// masks; the chip's TRNG feeds this port).
	OpLoadRnd
	// OpLoadConst: rd = constant ROM entry ra.
	OpLoadConst
)

func (o Op) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpAdd:
		return "ADD"
	case OpMul:
		return "MUL"
	case OpSqr:
		return "SQR"
	case OpMove:
		return "MOVE"
	case OpCSwap:
		return "CSWAP"
	case OpLoadRnd:
		return "LODR"
	case OpLoadConst:
		return "LODC"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Register-file and memory geometry.
const (
	// NumRegs is the number of working registers — the six 163-bit
	// registers the paper credits the MPL x-only representation with
	// needing (vs 8 for the prime-field Co-Z algorithm [6]).
	NumRegs = 6
	// NumConsts is the size of the read-only constant ROM.
	NumConsts = 5
	// NumRAM is the number of scratch RAM words available to
	// post-processing microcode (the ladder loop itself never touches
	// RAM; see RegisterPressure).
	NumRAM = 4
)

// Operand address spaces: 0..5 registers, 8..12 constant ROM,
// 16..19 scratch RAM.
const (
	constBase = 8
	ramBase   = 16
)

// Constant ROM layout.
const (
	ConstX    = constBase + iota // base-point x-coordinate
	ConstB                       // curve parameter b
	ConstY                       // base-point y-coordinate
	ConstOne                     // 1
	ConstZero                    // 0
)

// RAM slot addresses.
const (
	RAM0 = ramBase + iota
	RAM1
	RAM2
	RAM3
)

// Instr is one co-processor instruction.
type Instr struct {
	Op         Op
	Rd, Ra, Rb uint8
	// KeyBit is the index of the scalar bit driving this instruction's
	// mux select (OpCSwap only); -1 for unconditional instructions.
	KeyBit int
	// Iteration is the ladder iteration this instruction belongs to,
	// or -1 for pre/post-processing. The SCA layer uses it to segment
	// traces.
	Iteration int
}

func (in Instr) String() string {
	if in.Op == OpCSwap {
		return fmt.Sprintf("%s r%d,r%d <k%d>", in.Op, in.Rd, in.Ra, in.KeyBit)
	}
	return fmt.Sprintf("%s %s,%s,%s", in.Op, operandName(in.Rd), operandName(in.Ra), operandName(in.Rb))
}

func operandName(a uint8) string {
	switch {
	case a < NumRegs:
		return fmt.Sprintf("r%d", a)
	case a >= constBase && a < constBase+NumConsts:
		return fmt.Sprintf("c%d", a-constBase)
	case a >= ramBase && a < ramBase+NumRAM:
		return fmt.Sprintf("m%d", a-ramBase)
	default:
		return fmt.Sprintf("?%d", a)
	}
}

// Program is a fully unrolled microcode sequence plus metadata the
// executor and the analysis layers need.
type Program struct {
	Instrs []Instr
	// ResultX/ResultY are the registers holding the affine result
	// after execution (ResultY is only meaningful with y-recovery).
	ResultX, ResultY uint8
	// XOnly marks programs that skip y-recovery.
	XOnly bool
	// RPC marks programs that load randomized projective masks.
	RPC bool
}

// ProgramOptions selects the microcode variant.
type ProgramOptions struct {
	// RPC enables the randomized-projective-coordinates DPA
	// countermeasure (load two fresh masks from the TRNG port).
	RPC bool
	// XOnly skips y-recovery and returns only x(kP) — the mode the
	// identification protocol uses for d = xcoord(r·Y).
	XOnly bool
}

// Ladder register allocation (see the microcode below):
//
//	r0 = X0, r1 = Z0, r2 = X1, r3 = Z1, r4/r5 temporaries.
const (
	rX0 = iota
	rZ0
	rX1
	rZ1
	rT0
	rT1
)

// LadderIterations is the fixed number of ladder steps: all 163 bit
// positions of the scalar register are processed MSB-first regardless
// of the scalar's actual length, so the cycle count is a constant
// (paper §7: "the computation time of a point multiplication is the
// same for different key values").
const LadderIterations = 163

// BuildLadderProgram generates the complete microcode for one point
// multiplication R = k·P with the Montgomery powering ladder
// (paper Algorithm 1): projective (re-)randomization, 163 uniform
// ladder iterations built from conditional swaps + the López–Dahab
// MAdd/MDouble formulas (6 MUL + 5 SQR through the MALU per
// iteration), and either x-only conversion or full y-recovery, both
// via a single Itoh–Tsujii inversion.
func BuildLadderProgram(opt ProgramOptions) *Program {
	p := &Program{XOnly: opt.XOnly, RPC: opt.RPC}
	emit := func(op Op, rd, ra, rb uint8, keyBit, iter int) {
		p.Instrs = append(p.Instrs, Instr{Op: op, Rd: rd, Ra: ra, Rb: rb, KeyBit: keyBit, Iteration: iter})
	}
	u := func(op Op, rd, ra, rb uint8) { emit(op, rd, ra, rb, -1, -1) }

	// --- Initialization: (R0, R1) = (O, P) = ((λ:0), (µx:µ)). ---
	if opt.RPC {
		u(OpLoadRnd, rX0, 0, 0)           // λ
		u(OpLoadConst, rZ0, ConstZero, 0) // Z0 = 0  (O = (λ:0))
		u(OpLoadRnd, rT0, 0, 0)           // µ
		u(OpMul, rX1, ConstX, rT0)        // X1 = x·µ
		u(OpMove, rZ1, rT0, 0)            // Z1 = µ
	} else {
		u(OpLoadConst, rX0, ConstOne, 0)
		u(OpLoadConst, rZ0, ConstZero, 0)
		u(OpLoadConst, rX1, ConstX, 0)
		u(OpLoadConst, rZ1, ConstOne, 0)
	}

	// --- 163 uniform ladder iterations, MSB first. ---
	for i := LadderIterations - 1; i >= 0; i-- {
		it := i
		// Conditional swap in: bit=1 exchanges the roles of R0 and R1.
		emit(OpCSwap, rX0, rX1, 0, i, it)
		emit(OpCSwap, rZ0, rZ1, 0, i, it)
		// MAdd into (X1, Z1): x(R0 + R1) with difference x(P).
		emit(OpMul, rT0, rX0, rZ1, -1, it)
		emit(OpMul, rT1, rX1, rZ0, -1, it)
		emit(OpAdd, rZ1, rT0, rT1, -1, it)
		emit(OpSqr, rZ1, rZ1, 0, -1, it)
		emit(OpMul, rT0, rT0, rT1, -1, it)
		emit(OpMul, rX1, ConstX, rZ1, -1, it)
		emit(OpAdd, rX1, rX1, rT0, -1, it)
		// MDouble of (X0, Z0): X0' = X0^4 + b·Z0^4, Z0' = X0²·Z0².
		emit(OpSqr, rX0, rX0, 0, -1, it)
		emit(OpSqr, rZ0, rZ0, 0, -1, it)
		emit(OpMul, rT1, rX0, rZ0, -1, it)
		emit(OpSqr, rX0, rX0, 0, -1, it)
		emit(OpSqr, rZ0, rZ0, 0, -1, it)
		emit(OpMul, rZ0, ConstB, rZ0, -1, it)
		emit(OpAdd, rX0, rX0, rZ0, -1, it)
		emit(OpMove, rZ0, rT1, 0, -1, it)
		// Conditional swap out.
		emit(OpCSwap, rX0, rX1, 0, i, it)
		emit(OpCSwap, rZ0, rZ1, 0, i, it)
	}

	// --- Post-processing. ---
	if opt.XOnly {
		// x0 = X0 / Z0 = X0 · Z0^-1.
		emitInversion(p, rZ0, rT0, rT1) // rZ0 <- Z0^-1 (uses rT0, rT1)
		u(OpMul, rX0, rX0, rZ0)
		p.ResultX, p.ResultY = rX0, rX0
		return p
	}

	// Full y-recovery with a single inversion (Montgomery's trick
	// folded with the 1/x the López–Dahab recovery formula needs):
	//   I   = (Z0·Z1·x)^-1
	//   x0  = X0·Z1·x·I,  x1 = X1·Z0·x·I,  1/x = Z0·Z1·I.
	// The working set exceeds the six registers here, so X0 and X1
	// spill to scratch RAM — the ladder loop itself stays within six
	// registers (the paper's storage claim, asserted by tests).
	u(OpMove, RAM0, rX0, 0) // spill X0
	u(OpMove, RAM1, rX1, 0) // spill X1
	u(OpMul, rT0, rZ0, rZ1) // Z0·Z1
	u(OpMul, rX0, rT0, ConstX)
	u(OpMove, RAM2, rT0, 0)         // keep Z0·Z1
	emitInversion(p, rX0, rX1, rT1) // rX0 <- I (uses rX1, rT1 as scratch)
	u(OpMul, rT0, RAM2, rX0)        // 1/x = Z0·Z1·I
	u(OpMul, rX1, rX0, ConstX)      // I·x
	u(OpMul, rT1, rX1, rZ1)         // I·x·Z1
	u(OpMul, rT1, rT1, RAM0)        // x0 = X0·Z1·x·I
	u(OpMul, rZ0, rX1, rZ0)         // I·x·Z0
	u(OpMul, rZ0, rZ0, RAM1)        // x1 = X1·Z0·x·I
	// Recovery: y0 = (x0+x)·[(x0+x)(x1+x) + x² + y]·(1/x) + y.
	u(OpAdd, rX0, rT1, ConstX) // t0 = x0 + x
	u(OpAdd, rZ0, rZ0, ConstX) // t1 = x1 + x
	u(OpMul, rZ0, rX0, rZ0)    // t0·t1
	u(OpSqr, rX1, ConstX, 0)   // x²
	u(OpAdd, rZ0, rZ0, rX1)
	u(OpAdd, rZ0, rZ0, ConstY) // acc
	u(OpMul, rZ0, rX0, rZ0)    // t0·acc
	u(OpMul, rZ0, rZ0, rT0)    // ·(1/x)
	u(OpAdd, rZ1, rZ0, ConstY) // y0
	u(OpMove, rX0, rT1, 0)     // x0
	p.ResultX, p.ResultY = rX0, rZ1
	return p
}

// emitInversion appends Itoh–Tsujii inversion microcode computing
// target <- target^-1 with the addition chain
// 1,2,4,5,10,20,40,80,81,162 (9 MUL + 162 SQR + copies). scratch1
// holds the running β, scratch2 the squaring workspace; target keeps
// β1 until the end. All three registers are clobbered.
func emitInversion(p *Program, target, scratch1, scratch2 uint8) {
	u := func(op Op, rd, ra, rb uint8) {
		p.Instrs = append(p.Instrs, Instr{Op: op, Rd: rd, Ra: ra, Rb: rb, KeyBit: -1, Iteration: -1})
	}
	sqrN := func(r uint8, n int) {
		for i := 0; i < n; i++ {
			u(OpSqr, r, r, 0)
		}
	}
	// step: cur = sqrN(cur, n) * other, keeping β1 in target.
	// scratch1 = cur; scratch2 = squaring copy.
	u(OpMove, scratch1, target, 0) // β1
	// β2 = (β1)^2 · β1
	u(OpMove, scratch2, scratch1, 0)
	sqrN(scratch2, 1)
	u(OpMul, scratch1, scratch2, scratch1)
	// β4 = (β2)^(2^2) · β2
	u(OpMove, scratch2, scratch1, 0)
	sqrN(scratch2, 2)
	u(OpMul, scratch1, scratch2, scratch1)
	// β5 = (β4)^2 · β1
	u(OpMove, scratch2, scratch1, 0)
	sqrN(scratch2, 1)
	u(OpMul, scratch1, scratch2, target)
	// β10, β20, β40, β80
	for _, n := range []int{5, 10, 20, 40} {
		u(OpMove, scratch2, scratch1, 0)
		sqrN(scratch2, n)
		u(OpMul, scratch1, scratch2, scratch1)
	}
	// β81 = (β80)^2 · β1
	u(OpMove, scratch2, scratch1, 0)
	sqrN(scratch2, 1)
	u(OpMul, scratch1, scratch2, target)
	// β162 = (β81)^(2^81) · β81
	u(OpMove, scratch2, scratch1, 0)
	sqrN(scratch2, 81)
	u(OpMul, scratch1, scratch2, scratch1)
	// inverse = (β162)^2
	u(OpSqr, scratch1, scratch1, 0)
	u(OpMove, target, scratch1, 0)
}

// Timing parametrizes the cycle costs of the microarchitecture.
type Timing struct {
	// DigitSize is the digit-serial multiplier width d: a MUL/SQR
	// streams ceil(163/d) digit cycles through the MALU. The paper's
	// chip uses d = 4 ("a digit serial multiplication with a 163×4
	// modular multiplier achieves the optimal area-energy product
	// within the given latency constraints").
	DigitSize int
	// MulOverhead is the fixed operand-load + writeback cycle count
	// added to every MALU operation.
	MulOverhead int
	// SingleCycle is the cost of ADD/MOVE/CSWAP/loads.
	SingleCycle int
}

// DefaultTiming returns the calibrated timing of the prototype chip
// (d = 4; see EXPERIMENTS.md E1).
func DefaultTiming() Timing {
	return Timing{DigitSize: 4, MulOverhead: 2, SingleCycle: 1}
}

// Digits returns the number of digit cycles per MALU operation.
func (t Timing) Digits() int {
	if t.DigitSize <= 0 {
		panic("coproc: digit size must be positive")
	}
	return (163 + t.DigitSize - 1) / t.DigitSize
}

// InstrCycles returns the cycle cost of one instruction.
func (t Timing) InstrCycles(op Op) int {
	switch op {
	case OpMul, OpSqr:
		return t.Digits() + t.MulOverhead
	case OpNop:
		return 1
	default:
		return t.SingleCycle
	}
}

// CycleCount returns the total cycle count of the program under t.
// It is a static property: no instruction's latency depends on data,
// so this equals the measured cycle count for every key — the
// architecture-level half of the paper's timing countermeasure. The
// executor asserts this equality at run time.
func (p *Program) CycleCount(t Timing) int {
	total := 0
	for _, in := range p.Instrs {
		total += t.InstrCycles(in.Op)
	}
	return total
}

// Listing renders a human-readable microcode disassembly with cycle
// offsets under the given timing — the designer's view of the
// program. maxInstrs caps the output (0 = everything).
func (p *Program) Listing(t Timing, maxInstrs int) string {
	var b []byte
	count := 0
	for _, sp := range p.Spans(t) {
		if maxInstrs > 0 && count >= maxInstrs {
			b = append(b, "...\n"...)
			break
		}
		in := p.Instrs[sp.Index]
		line := fmt.Sprintf("%7d  %-22s", sp.Start, in.String())
		if in.Iteration >= 0 {
			line += fmt.Sprintf("  ; iter %d", in.Iteration)
		}
		b = append(b, line...)
		b = append(b, '\n')
		count++
	}
	return string(b)
}

// InstrSpan locates one instruction's cycles within a run: the
// half-open cycle interval [Start, End).
type InstrSpan struct {
	Index     int
	Op        Op
	Iteration int
	KeyBit    int
	Start     int
	End       int
}

// Spans returns the cycle interval of every instruction under timing
// t. Because no latency is data-dependent, the plan holds for every
// key — the property the SCA layer relies on to window and segment
// traces without aligning them first.
func (p *Program) Spans(t Timing) []InstrSpan {
	out := make([]InstrSpan, len(p.Instrs))
	cycle := 0
	for i, in := range p.Instrs {
		n := t.InstrCycles(in.Op)
		out[i] = InstrSpan{
			Index:     i,
			Op:        in.Op,
			Iteration: in.Iteration,
			KeyBit:    in.KeyBit,
			Start:     cycle,
			End:       cycle + n,
		}
		cycle += n
	}
	return out
}

// IterationWindow returns the cycle interval [start, end) covering
// ladder iterations fromIter down to toIter inclusive (iterations are
// numbered 162 down to 0 in processing order). It panics if the range
// is absent from the program.
func (p *Program) IterationWindow(t Timing, fromIter, toIter int) (start, end int) {
	start, end = -1, -1
	for _, sp := range p.Spans(t) {
		if sp.Iteration < 0 {
			continue
		}
		if sp.Iteration <= fromIter && sp.Iteration >= toIter {
			if start < 0 || sp.Start < start {
				start = sp.Start
			}
			if sp.End > end {
				end = sp.End
			}
		}
	}
	if start < 0 {
		panic(fmt.Sprintf("coproc: iterations %d..%d not in program", fromIter, toIter))
	}
	return start, end
}

// RegisterPressure returns the maximum number of distinct working
// registers live in the ladder loop (must be 6: the paper's storage
// argument for MPL over prime-field Co-Z) and the number of scratch
// RAM words touched anywhere in the program.
func (p *Program) RegisterPressure() (loopRegs, ramWords int) {
	regs := map[uint8]bool{}
	ram := map[uint8]bool{}
	for _, in := range p.Instrs {
		ops := []uint8{in.Rd, in.Ra}
		if in.Op == OpAdd || in.Op == OpMul {
			ops = append(ops, in.Rb)
		}
		for _, a := range ops {
			switch {
			case a < NumRegs:
				if in.Iteration >= 0 {
					regs[a] = true
				}
			case a >= ramBase && a < ramBase+NumRAM:
				ram[a] = true
			}
		}
	}
	return len(regs), len(ram)
}
