// Package core integrates the paper's contribution: a low-energy,
// side-channel-protected elliptic-curve public-key co-processor for
// medical devices. It stacks the security pyramid of Fig. 1 into one
// configuration object —
//
//	protocol level:      Peeters–Hermans identification (internal/protocol)
//	algorithm level:     K-163 Montgomery powering ladder with
//	                     randomized projective coordinates (internal/ec)
//	architecture level:  six-register, digit-serial-MALU microcode with
//	                     constant cycle counts (internal/coproc)
//	circuit level:       logic style, balanced mux encoding, clock
//	                     gating, input isolation, glitches (internal/power)
//
// — and exposes point multiplication with cycle/energy/power
// reporting, protocol hooks, and evaluation hooks for the Fig. 4
// side-channel workflow.
package core

import (
	"errors"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// Config is the full design point of a co-processor instance.
type Config struct {
	// Curve is the algorithm-level curve choice (default K-163, the
	// paper's 80-bit-security Koblitz curve).
	Curve *ec.Curve
	// Timing is the architecture-level cycle model (default: the
	// calibrated d = 4 MALU).
	Timing coproc.Timing
	// RPC enables randomized projective coordinates (default on; the
	// white-box DPA evaluation switches it off).
	RPC bool
	// Power is the circuit-level model (default: the protected chip).
	Power power.Config
	// TRNGSeed seeds the on-chip mask generator.
	TRNGSeed uint64
}

// DefaultConfig returns the paper's prototype chip: protected CMOS at
// 847.5 kHz / 1 V, d = 4, RPC on.
func DefaultConfig(seed uint64) Config {
	return Config{
		Curve:    ec.K163(),
		Timing:   coproc.DefaultTiming(),
		RPC:      true,
		Power:    power.ProtectedChip(seed),
		TRNGSeed: seed,
	}
}

// Report summarizes one operation on the co-processor.
type Report struct {
	Cycles    int
	EnergyJ   float64
	AvgPowerW float64
	DurationS float64
}

// Coprocessor is a configured co-processor instance. It implements
// protocol.PointMultiplier, so protocol parties can run directly on
// the simulated hardware with energy accounting.
type Coprocessor struct {
	cfg      Config
	progFull *coproc.Program
	progX    *coproc.Program
	trng     *rng.DRBG
	run      uint64

	// Total accumulates over the instance lifetime.
	Total Report
	// Last holds the most recent operation's report.
	Last Report
}

// New builds a co-processor. Zero-value config fields receive the
// paper defaults.
func New(cfg Config) (*Coprocessor, error) {
	if cfg.Curve == nil {
		cfg.Curve = ec.K163()
	}
	if cfg.Timing.DigitSize == 0 {
		cfg.Timing = coproc.DefaultTiming()
	}
	if cfg.Power.ClockHz == 0 {
		def := power.ProtectedChip(cfg.TRNGSeed)
		if cfg.Power == (power.Config{}) {
			cfg.Power = def
		} else {
			cfg.Power.ClockHz = power.DefaultClockHz
		}
	}
	if cfg.Power.Vdd == 0 {
		cfg.Power.Vdd = 1.0
	}
	if cfg.Timing.DigitSize < 1 || cfg.Timing.DigitSize > 61 {
		return nil, errors.New("core: digit size out of range")
	}
	return &Coprocessor{
		cfg:      cfg,
		progFull: coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: cfg.RPC}),
		progX:    coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: cfg.RPC, XOnly: true}),
		trng:     rng.NewDRBG(cfg.TRNGSeed),
	}, nil
}

// Curve returns the configured curve.
func (c *Coprocessor) Curve() *ec.Curve { return c.cfg.Curve }

func (c *Coprocessor) execute(prog *coproc.Program, k modn.Scalar, p ec.Point) (*coproc.CPU, error) {
	if p.Inf || p.X.IsZero() {
		return nil, errors.New("core: base point must be finite with x != 0")
	}
	if k.Cmp(c.cfg.Curve.Order.N()) >= 0 {
		return nil, errors.New("core: scalar not reduced")
	}
	cpu := coproc.NewCPU(c.cfg.Timing)
	cpu.Rand = c.trng.Uint64
	pcfg := c.cfg.Power
	pcfg.Seed ^= (c.run + 1) * 0x9e3779b97f4a7c15
	c.run++
	model := power.NewModel(pcfg)
	meter := power.NewMeter(model)
	cpu.Probe = meter.Probe()
	cpu.SetOperandConstants(p.X, c.cfg.Curve.B, p.Y)
	cycles, err := cpu.Run(prog, k)
	if err != nil {
		return nil, err
	}
	c.Last = Report{
		Cycles:    cycles,
		EnergyJ:   meter.EnergyJ(),
		AvgPowerW: meter.AvgPowerW(),
		DurationS: meter.DurationS(),
	}
	c.Total.Cycles += c.Last.Cycles
	c.Total.EnergyJ += c.Last.EnergyJ
	c.Total.DurationS += c.Last.DurationS
	if c.Total.DurationS > 0 {
		c.Total.AvgPowerW = c.Total.EnergyJ / c.Total.DurationS
	}
	return cpu, nil
}

// PointMul computes k*P on the simulated hardware with full
// y-recovery, updating the energy reports.
func (c *Coprocessor) PointMul(k modn.Scalar, p ec.Point) (ec.Point, error) {
	if k.IsZero() {
		return ec.Infinity(), nil
	}
	cpu, err := c.execute(c.progFull, k, p)
	if err != nil {
		return ec.Point{}, err
	}
	return ec.Point{X: cpu.ResultX(c.progFull), Y: cpu.ResultY(c.progFull)}, nil
}

// XOnlyPointMul computes the x-coordinate of k*P (the protocol's
// d = xcoord(r·Y) operation).
func (c *Coprocessor) XOnlyPointMul(k modn.Scalar, p ec.Point) (gf2m.Element, error) {
	if k.IsZero() {
		return gf2m.Element{}, errors.New("core: x-only result would be the point at infinity")
	}
	cpu, err := c.execute(c.progX, k, p)
	if err != nil {
		return gf2m.Element{}, err
	}
	return cpu.ResultX(c.progX), nil
}

// ScalarMul implements protocol.PointMultiplier.
func (c *Coprocessor) ScalarMul(k modn.Scalar, p ec.Point) (ec.Point, error) {
	return c.PointMul(k, p)
}

// XOnlyMul implements protocol.PointMultiplier.
func (c *Coprocessor) XOnlyMul(k modn.Scalar, p ec.Point) (gf2m.Element, error) {
	return c.XOnlyPointMul(k, p)
}

// GenerateScalar draws a private scalar in the Algorithm 1 fixed
// length form the microcode processes.
func (c *Coprocessor) GenerateScalar() modn.Scalar {
	return sca.AlgorithmOneScalar(c.cfg.Curve, c.trng.Uint64)
}

// EvaluationTarget exposes the instance as a device under side-channel
// evaluation (the Fig. 4 workflow) with the given fixed key.
func (c *Coprocessor) EvaluationTarget(key modn.Scalar) *sca.Target {
	return sca.NewTarget(c.cfg.Curve, key,
		coproc.ProgramOptions{RPC: c.cfg.RPC, XOnly: true},
		c.cfg.Timing, c.cfg.Power, c.cfg.TRNGSeed)
}

// ResetMeters clears the accumulated energy accounting.
func (c *Coprocessor) ResetMeters() {
	c.Total = Report{}
	c.Last = Report{}
}

var _ protocol.PointMultiplier = (*Coprocessor)(nil)
