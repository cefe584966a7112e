// Package power is the circuit-level model of the co-processor: it
// converts the simulator's per-cycle switching activity into
// instantaneous power, parameterized by exactly the design choices the
// paper's Section 6 discusses:
//
//   - logic style: standard CMOS (whose 0→1 asymmetry "is what enables
//     the attacker to develop a power consumption model"), WDDL and
//     SABL (data-independent consumption at high area/power cost);
//   - mux control-signal encoding for the 164 ladder multiplexers
//     (Fig. 3): balanced complementary pairs vs raw select lines;
//   - clock gating: constant vs data-dependent (the anti-pattern the
//     paper warns enables SPA);
//   - datapath input isolation (AND-gate operand gating);
//   - glitch suppression;
//   - a residual layout imbalance term reproducing the paper's "slight
//     unbalances are still present in the layout" SPA observation;
//   - additive Gaussian measurement noise (the oscilloscope of Fig. 4).
//
// The model is calibrated so the default (protected, CMOS) chip at
// 847.5 kHz and Vdd = 1 V consumes 50.4 µW, i.e. 5.1 µJ per point
// multiplication — the paper's headline numbers.
package power

import (
	"fmt"
	"strings"

	"medsec/internal/coproc"
	"medsec/internal/rng"
)

// LogicStyle selects the cell library of the secure zone.
type LogicStyle int

// Logic styles of Section 6.
const (
	// CMOS is standard static CMOS: dynamic energy on 0->1 output
	// transitions only, hence data-dependent.
	CMOS LogicStyle = iota
	// WDDL is Wave Dynamic Differential Logic: complementary
	// precharged pairs, data-independent switching, compatible with
	// standard synthesis, roughly 3x area/power.
	WDDL
	// SABL is Sense-Amplifier Based Logic: dynamic differential logic,
	// data-independent, full-custom, roughly 2x area/power.
	SABL
)

func (s LogicStyle) String() string {
	switch s {
	case CMOS:
		return "CMOS"
	case WDDL:
		return "WDDL"
	case SABL:
		return "SABL"
	default:
		return "unknown"
	}
}

// ParseStyle maps a (case-insensitive) style name to its LogicStyle.
func ParseStyle(name string) (LogicStyle, error) {
	switch strings.ToLower(name) {
	case "cmos":
		return CMOS, nil
	case "wddl":
		return WDDL, nil
	case "sabl":
		return SABL, nil
	default:
		return CMOS, fmt.Errorf("power: unknown logic style %q (want cmos, wddl or sabl)", name)
	}
}

// AreaFactor returns the gate-area multiplier of the style relative to
// standard CMOS — the Section 6 costs: WDDL roughly 3x (complementary
// precharged pairs), SABL roughly 2x (full-custom dynamic differential
// cells).
func (s LogicStyle) AreaFactor() float64 {
	switch s {
	case WDDL:
		return 3.0
	case SABL:
		return 2.0
	default:
		return 1.0
	}
}

// NumMuxLines is the number of multiplexer select lines fanned out
// from each ladder control signal (paper §6: "these control signals
// usually connect to many multiplexers (164 in the presented ECC
// co-processor)").
const NumMuxLines = 164

// Config selects the circuit-level design point.
type Config struct {
	Style LogicStyle
	// BalancedMux encodes the CSWAP select lines as complementary
	// pairs with constant Hamming weight (Fig. 3's countermeasure).
	// When false, the raw select value drives all 164 lines and its
	// weight — hence the power — tracks the key bit directly.
	BalancedMux bool
	// DataDepClockGating, when true, clocks the swap registers only
	// when the swap actually happens — the aggressive gating the paper
	// warns against ("different parts of the clock tree will be
	// activated... thereby enabling an SPA").
	DataDepClockGating bool
	// InputIsolation ANDs datapath inputs to a fixed value when
	// unused, suppressing operand-dependent spurious transitions.
	InputIsolation bool
	// GlitchFree suppresses the data-dependent glitch component
	// (inherent in WDDL/SABL; a design discipline in CMOS).
	GlitchFree bool
	// ResidualImbalance adds a small key-correlated term even when
	// BalancedMux is on, modeling the paper's "slight unbalances are
	// still present in the layout". 0 disables; the paper's chip
	// corresponds to a small positive value.
	ResidualImbalance float64
	// NoiseSigma is the standard deviation of the additive Gaussian
	// measurement noise, as a fraction of the nominal per-cycle
	// energy. The oscilloscope/EM setup of Fig. 4 sets this floor.
	NoiseSigma float64
	// Seed seeds the noise generator (deterministic experiments).
	Seed uint64
	// ClockHz is the core clock; the paper's chip runs at 847.5 kHz.
	ClockHz float64
	// Vdd is the core supply voltage; dynamic energy scales with
	// Vdd^2. The paper's chip runs at 1.0 V.
	Vdd float64
}

// ProtectedChip returns the configuration of the paper's prototype:
// standard CMOS with every circuit-level countermeasure applied, a
// tiny residual layout imbalance, and the lab-setup noise floor.
func ProtectedChip(seed uint64) Config {
	return Config{
		Style:              CMOS,
		BalancedMux:        true,
		DataDepClockGating: false,
		InputIsolation:     true,
		GlitchFree:         true,
		ResidualImbalance:  0.004,
		NoiseSigma:         0.03,
		Seed:               seed,
		ClockHz:            DefaultClockHz,
		Vdd:                1.0,
	}
}

// UnprotectedChip returns a naive low-power design: CMOS, raw mux
// selects, aggressive data-dependent clock gating, no input isolation,
// no glitch discipline. This is the strawman every experiment attacks.
func UnprotectedChip(seed uint64) Config {
	return Config{
		Style:              CMOS,
		BalancedMux:        false,
		DataDepClockGating: true,
		InputIsolation:     false,
		GlitchFree:         false,
		NoiseSigma:         0.03,
		Seed:               seed,
		ClockHz:            DefaultClockHz,
		Vdd:                1.0,
	}
}

// DefaultClockHz is the prototype's operating frequency.
const DefaultClockHz = 847500.0

// Model unit weights, in "toggle units" (one unit = one average gate
// output 0->1 transition at Vdd = 1 V). unitEnergyJ converts units to
// joules and is calibrated so that the ProtectedChip configuration
// reproduces the paper's 50.4 µW operating point (asserted by tests).
const (
	leakageUnits  = 30.0 // static leakage + always-on clock spine, per cycle
	clockPerReg   = 10.0 // clock tree load per 163-bit register clocked
	dataUnit      = 1.0  // per datapath 0->1 transition
	busUnit       = 1.0  // per operand-bus line at 1, when not isolated
	busIsolated   = 0.2  // residual bus cost with input isolation
	ctrlLineUnit  = 0.8  // per mux select line driven high (long wires, repeaters)
	glitchFactor  = 0.5  // extra data-dependent transitions when glitchy
	wddlDataUnits = 260.0
	sablDataUnits = 190.0
	wddlClockMul  = 2.2
	sablClockMul  = 1.8

	// unitEnergyJ is the calibration constant: joules per toggle unit
	// at Vdd = 1 V (see TestCalibration50uW).
	unitEnergyJ = 0.7385e-12
)

// Model converts cycle events to instantaneous power.
type Model struct {
	cfg   Config
	noise *rng.Gaussian
	// nominal per-cycle energy, used to scale the noise term.
	nominalJ float64
}

// NewModel builds a power model for the given configuration.
func NewModel(cfg Config) *Model {
	if cfg.ClockHz == 0 {
		cfg.ClockHz = DefaultClockHz
	}
	if cfg.Vdd == 0 {
		cfg.Vdd = 1.0
	}
	return &Model{
		cfg:      cfg,
		noise:    rng.NewGaussian(cfg.Seed ^ 0x9d2c5680),
		nominalJ: 59.47e-12, // 50.4 µW / 847.5 kHz
	}
}

// Reinit resets the model in place to the state NewModel(cfg) would
// produce, without allocating: the embedded Gaussian noise source is
// re-seeded rather than replaced. The campaign engine's per-worker
// scratch models re-init once per trace; this is what keeps the
// steady-state acquisition loop off the heap. The resulting noise
// stream is bit-identical to a freshly constructed model's.
func (m *Model) Reinit(cfg Config) {
	if cfg.ClockHz == 0 {
		cfg.ClockHz = DefaultClockHz
	}
	if cfg.Vdd == 0 {
		cfg.Vdd = 1.0
	}
	m.cfg = cfg
	if m.noise == nil {
		m.noise = rng.NewGaussian(cfg.Seed ^ 0x9d2c5680)
	} else {
		m.noise.Reseed(cfg.Seed ^ 0x9d2c5680)
	}
	m.nominalJ = 59.47e-12
}

// CycleEnergy returns the energy in joules consumed during the cycle
// described by ev, including measurement noise: CycleComponents' Total,
// summed in the same order.
func (m *Model) CycleEnergy(ev *coproc.CycleEvent) float64 {
	return m.CycleBaseEnergy(ev) + m.noiseTerm()
}

// Components is the per-cycle energy split by circuit block (joules).
// It answers the designer's "where do the microjoules go" question and
// feeds the breakdown table of cmd/eccsim.
type Components struct {
	Leakage  float64
	Clock    float64
	Datapath float64
	Control  float64
	Noise    float64
}

// Total sums the components.
func (c Components) Total() float64 {
	return c.Leakage + c.Clock + c.Datapath + c.Control + c.Noise
}

// Add accumulates o into c.
func (c *Components) Add(o Components) {
	c.Leakage += o.Leakage
	c.Clock += o.Clock
	c.Datapath += o.Datapath
	c.Control += o.Control
	c.Noise += o.Noise
}

// CycleComponents returns the cycle energy split by circuit block,
// drawing the cycle's measurement-noise term.
func (m *Model) CycleComponents(ev *coproc.CycleEvent) Components {
	var out Components
	m.cycleEnergy(ev, &out)
	out.Noise = m.noiseTerm()
	return out
}

// noiseTerm draws the cycle's measurement-noise energy (joules): one
// Gaussian sample when NoiseSigma > 0, nothing drawn otherwise.
func (m *Model) noiseTerm() float64 {
	if m.cfg.NoiseSigma <= 0 {
		return 0
	}
	return m.noise.Sample() * m.cfg.NoiseSigma * m.nominalJ
}

// CycleBaseEnergy returns the cycle's energy in joules excluding the
// measurement-noise term, as a single scalar: the lane sink's fast
// form of CycleComponents, summed in the association order of
// Components.Total (leakage, clock, datapath, control left to right),
// so that callers adding a separately drawn noise term reproduce
// CycleEnergy bit-for-bit. It inlines, leaving one call per cycle on
// the sink's hot path.
func (m *Model) CycleBaseEnergy(ev *coproc.CycleEvent) float64 {
	return m.cycleEnergy(ev, nil)
}

// cycleEnergy is the model's one energy formula: the noise-free
// leakage, clock-tree, datapath and control energies (joules) of the
// cycle described by ev, returned summed as
// ((leakage+clock)+datapath)+control and, when terms is non-nil, also
// stored one by one in it (Noise untouched). Returning the sum keeps
// the sink's hot path to a single call with no terms spilled to memory.
func (m *Model) cycleEnergy(ev *coproc.CycleEvent, terms *Components) float64 {
	scale := unitEnergyJ * m.cfg.Vdd * m.cfg.Vdd
	leak := leakageUnits * scale

	// --- Clock tree. ---
	regs := float64(ev.RegsClocked)
	clockMul := 1.0
	switch m.cfg.Style {
	case WDDL:
		clockMul = wddlClockMul
	case SABL:
		clockMul = sablClockMul
	}
	if m.cfg.DataDepClockGating && ev.Op == coproc.OpCSwap {
		// Registers receive a clock edge only if the swap happens:
		// the clock-tree power now *is* the key bit.
		regs = float64(ev.RegsClocked) * float64(ev.CtrlSel)
	}
	clock := regs * clockPerReg * clockMul * scale

	// --- Datapath. ---
	var datapath float64
	switch m.cfg.Style {
	case CMOS:
		data := float64(ev.Write01+ev.Acc01) * dataUnit
		if m.cfg.InputIsolation {
			data += float64(ev.BusHW) * busIsolated
		} else {
			data += float64(ev.BusHW) * busUnit
		}
		if !m.cfg.GlitchFree {
			// Glitches multiply data-dependent activity: spurious
			// transitions racing through the combinational cloud.
			data += glitchFactor * float64(ev.AccHD+ev.WriteHD)
		}
		datapath = data * scale
	case WDDL:
		// Precharge/evaluate: one transition per differential pair per
		// cycle regardless of data.
		datapath = wddlDataUnits * scale
	case SABL:
		datapath = sablDataUnits * scale
	}

	// --- Conditional-swap circuitry (CSWAP cycles only). ---
	var control float64
	if ev.Op == coproc.OpCSwap {
		if m.cfg.BalancedMux {
			// Fig. 3's protected design: the swap is a renaming through
			// multiplexers whose select lines are encoded as
			// complementary pairs — constant control weight, no
			// register writes — plus the residual layout imbalance.
			control = NumMuxLines * ctrlLineUnit * (1 + m.cfg.ResidualImbalance*float64(ev.CtrlSel)) * scale
		} else {
			// Naive design: the raw select value drives all 164 lines,
			// and the registers physically exchange contents when the
			// swap fires, paying the full data toggles.
			control = NumMuxLines * ctrlLineUnit * float64(ev.CtrlSel) * scale
			if m.cfg.Style == CMOS {
				datapath += float64(2*ev.SwapHD) * dataUnit * float64(ev.CtrlSel) * scale
			}
		}
	}
	if terms != nil {
		terms.Leakage, terms.Clock, terms.Datapath, terms.Control = leak, clock, datapath, control
	}
	return ((leak + clock) + datapath) + control
}

// sampleChunk is the number of lanes Samples skips together: the 8
// generators rng.SkipLanes's AVX2 kernel steps at once.
const sampleChunk = 8

// Samples turns one lane batch's noise-free cycle energies into power
// samples in watts, in place. energies[l] holds lane l's
// CycleBaseEnergy values at the ascending cycles record[k], or at
// cycles start, start+1, ... when record is nil, and every lane holds
// as many. Each lane's noise stream must stand at cycle 0, as NewModel
// and Reinit leave it: the sample at cycle c takes draw c, so it is bit
// for bit what CyclePower returns at cycle c in a run that evaluates
// every cycle. The draws of the cycles between kept ones are skipped
// for all lanes at once (rng.SkipLanes); a run of consecutive kept
// cycles is drawn with rng.Gaussian.Fill, and each sample is
// (energy + v·NoiseSigma·nominal)·ClockHz, CycleEnergy's sum in its
// order. A lane with NoiseSigma 0 draws nothing.
func Samples(models []*Model, energies [][]float64, start int, record []int) {
	for lo := 0; lo < len(models); lo += sampleChunk {
		hi := min(lo+sampleChunk, len(models))
		samplesChunk(models[lo:hi], energies[lo:hi], start, record)
	}
}

// samplesChunk is Samples over at most sampleChunk lanes.
func samplesChunk(models []*Model, energies [][]float64, start int, record []int) {
	var noisy [sampleChunk]*rng.Gaussian
	gs := noisy[:0]
	for l, m := range models {
		if m.cfg.NoiseSigma > 0 {
			gs = append(gs, m.noise)
			continue
		}
		for k, e := range energies[l] {
			energies[l][k] = e * m.cfg.ClockHz
		}
	}
	if len(gs) == 0 {
		return
	}
	var draws [256]float64
	at := 0 // the cycle every noisy lane's stream stands at
	for k, n := 0, len(energies[0]); k < n; {
		c, run := start+k, n-k
		if record != nil {
			c, run = record[k], 1
			for k+run < n && record[k+run] == c+run {
				run++
			}
		}
		rng.SkipLanes(gs, c-at)
		for l, m := range models {
			if m.cfg.NoiseSigma > 0 {
				m.addNoise(energies[l][k:k+run], draws[:])
			}
		}
		at, k = c+run, k+run
	}
}

// addNoise draws the noise of len(e) consecutive cycles, in blocks of
// len(draws), and turns their energies into samples.
func (m *Model) addNoise(e, draws []float64) {
	sigma, nominal, hz := m.cfg.NoiseSigma, m.nominalJ, m.cfg.ClockHz
	for len(e) > 0 {
		d := draws[:min(len(e), len(draws))]
		m.noise.Fill(d)
		for i, v := range d {
			// The conversion rounds the noise term on its own before
			// the sum; a fused multiply-add (arm64) would change the
			// sample's bits.
			e[i] = (e[i] + float64(v*sigma*nominal)) * hz
		}
		e = e[len(d):]
	}
}

// BreakdownMeter accumulates per-component energy over a run.
type BreakdownMeter struct {
	model  *Model
	total  Components
	cycles int
}

// NewBreakdownMeter creates a component-resolved meter.
func NewBreakdownMeter(model *Model) *BreakdownMeter {
	return &BreakdownMeter{model: model}
}

// Probe returns the coproc.Probe to attach to a CPU.
func (bm *BreakdownMeter) Probe() coproc.Probe {
	return func(ev *coproc.CycleEvent) {
		bm.total.Add(bm.model.CycleComponents(ev))
		bm.cycles++
	}
}

// Totals returns the accumulated component energies.
func (bm *BreakdownMeter) Totals() Components { return bm.total }

// Cycles returns the metered cycle count.
func (bm *BreakdownMeter) Cycles() int { return bm.cycles }

// CyclePower returns the instantaneous power in watts for the cycle.
func (m *Model) CyclePower(ev *coproc.CycleEvent) float64 {
	return m.CycleEnergy(ev) * m.cfg.ClockHz
}

// Meter accumulates total energy over a run; attach its Probe to a
// CPU. It is the simulator's wattmeter.
type Meter struct {
	model  *Model
	totalJ float64
	cycles int
}

// NewMeter creates a Meter over the given model.
func NewMeter(model *Model) *Meter { return &Meter{model: model} }

// Probe returns the coproc.Probe to attach to a CPU.
func (mt *Meter) Probe() coproc.Probe {
	return func(ev *coproc.CycleEvent) {
		mt.totalJ += mt.model.CycleEnergy(ev)
		mt.cycles++
	}
}

// EnergyJ returns the accumulated energy in joules.
func (mt *Meter) EnergyJ() float64 { return mt.totalJ }

// Cycles returns the number of metered cycles.
func (mt *Meter) Cycles() int { return mt.cycles }

// AvgPowerW returns the mean power over the metered interval.
func (mt *Meter) AvgPowerW() float64 {
	if mt.cycles == 0 {
		return 0
	}
	return mt.totalJ / (float64(mt.cycles) / mt.model.cfg.ClockHz)
}

// DurationS returns the metered wall-clock duration in seconds at the
// configured clock.
func (mt *Meter) DurationS() float64 {
	return float64(mt.cycles) / mt.model.cfg.ClockHz
}
