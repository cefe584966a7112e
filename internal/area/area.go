// Package area models silicon cost: gate counts, the digit-size
// trade-off of the MALU (paper §5: "the choice of the digit-size
// determines the power needed for the computation, as well as the
// latency and area [16]. By using a digit serial multiplication with a
// 163×4 modular multiplier we achieve the optimal area-energy product
// within the given latency constraints"), and the implementation-size
// comparison of §4 ("the smallest SHA-1 implementation [12] uses 5527
// gates, while an ECC core uses about 12k gates [10]").
//
// Latency and cycle counts are not modeled here — they come from the
// actual microcode via internal/coproc, so the sweep's latency column
// is the simulator's, not a curve fit.
package area

import (
	"errors"

	"medsec/internal/coproc"
)

// GateModel parametrizes the gate-equivalent (GE) cost of the ECC
// co-processor's blocks, fitted to the ~12 kGE total of [10] at d = 4.
type GateModel struct {
	// RegFileGE covers the six 163-bit working registers.
	RegFileGE float64
	// ControlGE covers the microcode sequencer and I/O.
	ControlGE float64
	// MALUFixedGE is the digit-independent part of the MALU
	// (accumulator, reduction network).
	MALUFixedGE float64
	// MALUPerDigitGE is the incremental cost of one digit row
	// (163 AND + 163 XOR plus wiring).
	MALUPerDigitGE float64
}

// DefaultGateModel returns the fitted model.
func DefaultGateModel() GateModel {
	return GateModel{
		RegFileGE:      4700,
		ControlGE:      1600,
		MALUFixedGE:    1000,
		MALUPerDigitGE: 1180,
	}
}

// MALUGE returns the MALU area at digit size d.
func (g GateModel) MALUGE(d int) float64 {
	return g.MALUFixedGE + float64(d)*g.MALUPerDigitGE
}

// ECCProcessorGE returns the full co-processor area at digit size d.
func (g GateModel) ECCProcessorGE(d int) float64 {
	return g.RegFileGE + g.ControlGE + g.MALUGE(d)
}

// MaskingAreaFactor is the datapath area multiplier of the
// first-order Boolean-masked design: carrying every register and MALU
// word as two shares doubles the datapath storage and digit rows, and
// the mask-refresh network (one fresh-mask XOR layer per writeback)
// adds a few percent on top. The sequencer is untouched — masking is
// a pure datapath transformation.
const MaskingAreaFactor = 2.1

// Estimate is a per-module area breakdown of one co-processor design
// point. The secure-zone datapath (register file and MALU) pays the
// logic-style multiplier; the microcode sequencer stays standard CMOS
// — it handles no key-dependent data, so it needs no protected cells.
type Estimate struct {
	// DigitSize is the MALU digit width the estimate was taken at.
	DigitSize int
	// LogicFactor is the style area multiplier applied to the datapath
	// (1 for CMOS, see power.LogicStyle.AreaFactor).
	LogicFactor float64
	// MaskFactor is the masking area multiplier applied to the datapath
	// (1 for an unmasked design, MaskingAreaFactor for Boolean shares).
	MaskFactor float64
	// RegFileGE, MALUGE are the style-scaled datapath blocks.
	RegFileGE float64
	MALUGE    float64
	// ControlGE is the unscaled sequencer/I/O block.
	ControlGE float64
}

// TotalGE returns the summed gate count.
func (e Estimate) TotalGE() float64 {
	return e.RegFileGE + e.MALUGE + e.ControlGE
}

// EstimateMasked prices a design point: digit size d with the datapath
// built in a logic style costing logicFactor times CMOS area, and a
// masking datapath multiplier on top of the logic style. The two
// factors compose, because the shares are built from the same
// protected cells as the unmasked datapath. At factors 1 the total
// equals ECCProcessorGE(d).
func (g GateModel) EstimateMasked(d int, logicFactor, maskFactor float64) Estimate {
	return Estimate{
		DigitSize:   d,
		LogicFactor: logicFactor,
		MaskFactor:  maskFactor,
		RegFileGE:   g.RegFileGE * logicFactor * maskFactor,
		MALUGE:      g.MALUGE(d) * logicFactor * maskFactor,
		ControlGE:   g.ControlGE,
	}
}

// Power model for the sweep: dynamic power grows with the number of
// datapath bits switching per cycle, i.e. linearly in d, on top of a
// fixed clock/leakage floor. Calibrated to the chip's 50.4 µW at
// d = 4.
const (
	powerFixedW    = 30.0e-6
	powerPerDigitW = 5.1e-6
)

// PowerW returns the modeled average power at digit size d.
func PowerW(d int) float64 { return powerFixedW + float64(d)*powerPerDigitW }

// DigitSweepRow is one row of the E4 table.
type DigitSweepRow struct {
	D            int
	AreaGE       float64
	Cycles       int
	LatencyS     float64
	PowerW       float64
	EnergyJ      float64
	AreaEnergy   float64 // GE · µJ (the figure of merit the paper optimizes)
	MeetsLatency bool
}

// DigitSweep evaluates the digit sizes with real cycle counts from the
// ladder microcode. latencyLimitS is the paper's "given latency
// constraint" (one point multiplication must finish within it).
func DigitSweep(digits []int, clockHz, latencyLimitS float64) ([]DigitSweepRow, error) {
	if clockHz <= 0 || latencyLimitS <= 0 {
		return nil, errors.New("area: clock and latency limit must be positive")
	}
	g := DefaultGateModel()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	rows := make([]DigitSweepRow, 0, len(digits))
	for _, d := range digits {
		if d <= 0 || d > 61 {
			return nil, errors.New("area: digit size out of range")
		}
		tim := coproc.DefaultTiming()
		tim.DigitSize = d
		cycles := prog.CycleCount(tim)
		lat := float64(cycles) / clockHz
		p := PowerW(d)
		e := p * lat
		rows = append(rows, DigitSweepRow{
			D:            d,
			AreaGE:       g.ECCProcessorGE(d),
			Cycles:       cycles,
			LatencyS:     lat,
			PowerW:       p,
			EnergyJ:      e,
			AreaEnergy:   g.ECCProcessorGE(d) * e * 1e6,
			MeetsLatency: lat <= latencyLimitS,
		})
	}
	return rows, nil
}

// OptimalDigit returns the digit size with the smallest area-energy
// product among rows meeting the latency constraint, or an error if
// none qualifies.
func OptimalDigit(rows []DigitSweepRow) (int, error) {
	best := -1
	for i, r := range rows {
		if !r.MeetsLatency {
			continue
		}
		if best < 0 || r.AreaEnergy < rows[best].AreaEnergy {
			best = i
		}
	}
	if best < 0 {
		return 0, errors.New("area: no digit size meets the latency constraint")
	}
	return rows[best].D, nil
}

// ModuleGE is one row of the E6 implementation-size table.
type ModuleGE struct {
	Module string
	GE     float64
	Source string
}

// ModuleGateCounts returns the §4 size-comparison table. The SHA-1
// figure is the cited measurement of [12]; the ECC figure is this
// model at the chip's d = 4; AES is the standard compact-core
// ballpark included for the secret-key comparison.
func ModuleGateCounts() []ModuleGE {
	g := DefaultGateModel()
	return []ModuleGE{
		{Module: "ECC co-processor (d=4)", GE: g.ECCProcessorGE(4), Source: "this model, fitted to [10]"},
		{Module: "SHA-1", GE: 5527, Source: "O'Neill [12]"},
		{Module: "AES-128 (compact)", GE: 3400, Source: "literature ballpark"},
		{Module: "PRESENT-80", GE: 1570, Source: "Bogdanov et al., CHES 2007"},
		{Module: "6x163-bit register file", GE: g.RegFileGE, Source: "this model"},
		{Module: "MALU (d=4)", GE: g.MALUGE(4), Source: "this model"},
	}
}

// Register-pressure comparison (E5): storage cost of the scalar
// multiplication state for the paper's MPL x-only algorithm vs the
// prime-field Co-Z algorithm of Hutter–Joye–Sierra [6], which needs 8
// field registers excluding the curve constants.
const (
	// GEPerRegisterBit is the flip-flop cost per stored bit.
	GEPerRegisterBit = 4.8
	// MPLRegisters is the paper's "six 163-bit registers for the
	// whole point multiplication".
	MPLRegisters = 6
	// CoZRegisters is the 8-register requirement of [6].
	CoZRegisters = 8
)

// RegisterStorageGE returns the register-file GE cost for nRegs
// registers of width bits.
func RegisterStorageGE(nRegs, bits int) float64 {
	return float64(nRegs*bits) * GEPerRegisterBit
}
