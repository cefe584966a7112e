package design

import (
	"errors"
	"fmt"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/power"
	"medsec/internal/protocol"
	"medsec/internal/rng"
	"medsec/internal/sca"
)

// Measurement is one metered operation on the co-processor.
type Measurement struct {
	Cycles    int
	EnergyJ   float64
	AvgPowerW float64
	DurationS float64
}

// measured reads a meter's run as a Measurement.
func measured(m *power.Meter) Measurement {
	return Measurement{
		Cycles:    m.Cycles(),
		EnergyJ:   m.EnergyJ(),
		AvgPowerW: m.AvgPowerW(),
		DurationS: m.DurationS(),
	}
}

// Chip is the paper's co-processor at one design point: the Fig. 1
// security pyramid as one metered object. The K-163 Montgomery ladder
// runs on the digit-serial MALU microcode, and every cycle is priced by
// the point's circuit-level power model, noise included. It implements
// protocol.PointMultiplier, so protocol parties run directly on the
// simulated hardware with energy accounting.
type Chip struct {
	// st is a copy, so rebuilding the Stack that minted the chip (as
	// Cache.BuildInto does in place) leaves the chip as it was.
	st       Stack
	progFull *coproc.Program
	progX    *coproc.Program
	trng     *rng.DRBG
	runs     uint64

	// Last holds the most recent point multiplication's measurement.
	Last Measurement
	// Total accumulates over the chip's lifetime.
	Total Measurement
}

var _ protocol.PointMultiplier = (*Chip)(nil)

// Chip mints the metered co-processor for this point, its on-chip TRNG
// seeded from TRNGSeed. Only the ladder microcode runs on the chip's
// fixed control store, and only on the unmasked datapath.
func (s *Stack) Chip() (*Chip, error) {
	if s.Point.Microcode != MicrocodeLadder {
		return nil, fmt.Errorf("design: Microcode %q has no chip control store (only %q)",
			s.Point.Microcode, MicrocodeLadder)
	}
	if s.Masked() {
		return nil, fmt.Errorf("design: the chip has no %q datapath (only %q); evaluate masked points through Target",
			s.Point.Masking, MaskingNone)
	}
	return &Chip{
		st:       *s,
		progFull: s.Ladder(),
		progX:    coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: s.Point.RPC, XOnly: true}),
		trng:     rng.NewDRBG(s.Point.TRNGSeed),
	}, nil
}

// Curve returns the chip's curve.
func (c *Chip) Curve() *ec.Curve { return c.st.Curve }

// execute runs prog for k*P and meters it into Last and Total. Each run
// draws its RPC masks from the chip's TRNG and its measurement noise
// from a stream of its own.
func (c *Chip) execute(prog *coproc.Program, k modn.Scalar, p ec.Point) (*coproc.CPU, error) {
	if p.Inf || p.X.IsZero() {
		return nil, errors.New("design: base point must be finite with x != 0")
	}
	if k.Cmp(c.st.Curve.Order.N()) >= 0 {
		return nil, errors.New("design: scalar not reduced")
	}
	pcfg := c.st.Power
	pcfg.Seed ^= (c.runs + 1) * 0x9e3779b97f4a7c15
	c.runs++
	meter := power.NewMeter(power.NewModel(pcfg))
	// A chip is never masked (Chip refuses masked points), so no mask
	// stream is seeded.
	cpu, err := c.st.run(prog, k, p, c.trng.Uint64, 0, meter.Probe())
	if err != nil {
		return nil, err
	}
	c.Last = measured(meter)
	c.Total.Cycles += c.Last.Cycles
	c.Total.EnergyJ += c.Last.EnergyJ
	c.Total.DurationS += c.Last.DurationS
	if c.Total.DurationS > 0 {
		c.Total.AvgPowerW = c.Total.EnergyJ / c.Total.DurationS
	}
	return cpu, nil
}

// ScalarMul computes k*P on the chip with full y-recovery.
func (c *Chip) ScalarMul(k modn.Scalar, p ec.Point) (ec.Point, error) {
	if k.IsZero() {
		return ec.Infinity(), nil
	}
	cpu, err := c.execute(c.progFull, k, p)
	if err != nil {
		return ec.Point{}, err
	}
	return ec.Point{X: cpu.ResultX(c.progFull), Y: cpu.ResultY(c.progFull)}, nil
}

// XOnlyMul computes the x-coordinate of k*P on the chip (the
// protocol's d = xcoord(r·Y) operation).
func (c *Chip) XOnlyMul(k modn.Scalar, p ec.Point) (gf2m.Element, error) {
	if k.IsZero() {
		return gf2m.Element{}, errors.New("design: x-only result would be the point at infinity")
	}
	cpu, err := c.execute(c.progX, k, p)
	if err != nil {
		return gf2m.Element{}, err
	}
	return cpu.ResultX(c.progX), nil
}

// GenerateScalar draws a private scalar from the chip's TRNG in the
// Algorithm 1 fixed-length form the microcode processes.
func (c *Chip) GenerateScalar() modn.Scalar {
	return sca.AlgorithmOneScalar(c.st.Curve, c.trng.Uint64)
}

// ResetMeters clears Last and Total.
func (c *Chip) ResetMeters() {
	c.Total = Measurement{}
	c.Last = Measurement{}
}

// MeasurePointMul runs one noise-free point multiplication of the
// generator under the power meter and returns its cost. The measured
// program is the full ladder (including y-recovery) — or the
// double-and-add microcode when selected — at the point's RPC
// setting; randSeed seeds the RPC mask stream. NoiseSigma is forced
// to 0 so the reading is the chip's nominal energy, not one noisy
// sample.
func (s *Stack) MeasurePointMul(key modn.Scalar, randSeed uint64) (Measurement, error) {
	meter := power.NewMeter(s.nominalModel())
	if err := s.measure(key, randSeed, meter.Probe()); err != nil {
		return Measurement{}, err
	}
	return measured(meter), nil
}

// MeasureBreakdown is MeasurePointMul with the component-resolved
// meter: it returns the per-component energy split of one point
// multiplication. The two meters accumulate floating point in
// different orders, so callers that pin outputs must keep using the
// same meter they always did.
func (s *Stack) MeasureBreakdown(key modn.Scalar, randSeed uint64) (power.Components, int, error) {
	bm := power.NewBreakdownMeter(s.nominalModel())
	if err := s.measure(key, randSeed, bm.Probe()); err != nil {
		return power.Components{}, 0, err
	}
	return bm.Totals(), bm.Cycles(), nil
}

// nominalModel is the point's power model with the noise off.
func (s *Stack) nominalModel() *power.Model {
	pcfg := s.Power
	pcfg.NoiseSigma = 0
	return power.NewModel(pcfg)
}

// measure runs the point's microcode for key on the generator under
// probe, randSeed seeding the RPC stream and, on a masked point, the
// mask stream.
func (s *Stack) measure(key modn.Scalar, randSeed uint64, probe coproc.Probe) error {
	prog, err := s.ProgramFor(key)
	if err != nil {
		return err
	}
	// The mask stream is seeded apart from the RPC stream, mirroring
	// sca.Target's maskSeed split.
	_, err = s.run(prog, key, s.Curve.Generator(), rng.NewDRBG(randSeed).Uint64, randSeed^0xd1342543de82ef95, probe)
	return err
}

// run executes prog for scalar k and base point p on a fresh CPU at
// the point's timing, every cycle under probe. rand feeds the RPC
// stream. A masked point switches both shares of every datapath word,
// so the metered energy carries the real masking overhead; its mask
// stream is seeded from maskSeed. run is the one metered execution:
// the chip's point multiplications, MeasurePointMul and
// MeasureBreakdown all go through it.
func (s *Stack) run(prog *coproc.Program, k modn.Scalar, p ec.Point, rand func() uint64, maskSeed uint64, probe coproc.Probe) (*coproc.CPU, error) {
	cpu := coproc.NewCPU(s.Timing)
	cpu.Rand = rand
	if s.Masked() {
		cpu.Masked = true
		cpu.MaskRand = rng.NewDRBG(maskSeed).Uint64
	}
	cpu.Probe = probe
	cpu.SetOperandConstants(p.X, s.Curve.B, p.Y)
	if _, err := cpu.Run(prog, k); err != nil {
		return nil, err
	}
	return cpu, nil
}
