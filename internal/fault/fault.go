// Package fault implements active (fault-injection) attack simulation
// against the co-processor, and the detection countermeasures the
// paper's threat analysis demands: the protocol layer already rejects
// invalid inbound points (ec.Validate); this package covers the
// outbound direction — a glitched point multiplication must never
// release a faulty result, because faulty ECC outputs are the raw
// material of Bellcore-style and invalid-curve key-extraction attacks.
//
// The injector flips one chosen register bit at one chosen clock cycle
// (a voltage/laser glitch at instruction granularity); the
// countermeasure validates the result (on-curve and subgroup
// membership) before it leaves the secure zone.
package fault

import (
	"fmt"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// Injection describes one fault: at clock cycle Cycle, flip bit Bit of
// working register Reg.
type Injection struct {
	Cycle int
	Reg   int
	Bit   int
}

// InjectionError is the typed rejection of an injection whose target
// lies outside the machine or the program: negative or past-the-end
// cycles, register indices outside the file, bit positions outside the
// field width. Callers sweeping generated fault spaces can distinguish
// it from simulator failures with errors.As.
type InjectionError struct {
	Inj    Injection
	Reason string
}

func (e *InjectionError) Error() string {
	return fmt.Sprintf("fault: invalid injection (cycle %d, reg %d, bit %d): %s",
		e.Inj.Cycle, e.Inj.Reg, e.Inj.Bit, e.Reason)
}

// validate rejects injections no physical glitch could correspond to.
func (inj Injection) validate() error {
	switch {
	case inj.Cycle < 0:
		return &InjectionError{Inj: inj, Reason: "negative cycle"}
	case inj.Reg < 0 || inj.Reg >= coproc.NumRegs:
		return &InjectionError{Inj: inj, Reason: "register outside the file"}
	case inj.Bit < 0 || inj.Bit >= 163:
		return &InjectionError{Inj: inj, Reason: "bit outside the field width"}
	}
	return nil
}

// Result classifies the outcome of one faulted run.
type Result int

// Outcomes of a faulted point multiplication.
const (
	// Benign: the fault did not change the final result (hit a dead
	// value).
	Benign Result = iota
	// Detected: the result was corrupted and the output validation
	// caught it.
	Detected
	// Escaped: the result was corrupted and validation passed — a
	// countermeasure failure.
	Escaped
)

func (r Result) String() string {
	switch r {
	case Benign:
		return "benign"
	case Detected:
		return "detected"
	case Escaped:
		return "escaped"
	default:
		return "unknown"
	}
}

// RunWithFault executes one point multiplication k*P with the given
// injection and classifies the outcome under output validation.
func RunWithFault(curve *ec.Curve, tim coproc.Timing, k modn.Scalar, p ec.Point, inj Injection, trngSeed uint64) (Result, error) {
	if err := inj.validate(); err != nil {
		return 0, err
	}
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})

	// Reference (fault-free) run with the same TRNG stream.
	ref := coproc.NewCPU(tim)
	ref.Rand = rng.NewDRBG(trngSeed).Uint64
	ref.SetOperandConstants(p.X, curve.B, p.Y)
	if _, err := ref.Run(prog, k); err != nil {
		return 0, err
	}
	want := ec.Point{X: ref.ResultX(prog), Y: ref.ResultY(prog)}

	// Faulted run.
	cpu := coproc.NewCPU(tim)
	cpu.Rand = rng.NewDRBG(trngSeed).Uint64
	cpu.SetOperandConstants(p.X, curve.B, p.Y)
	injected := false
	cpu.Probe = func(ev *coproc.CycleEvent) {
		if !injected && ev.Cycle == inj.Cycle {
			cpu.FlipBit(inj.Reg, inj.Bit)
			injected = true
		}
	}
	if _, err := cpu.Run(prog, k); err != nil {
		return 0, err
	}
	if !injected {
		return 0, &InjectionError{Inj: inj, Reason: "cycle beyond program end"}
	}
	got := ec.Point{X: cpu.ResultX(prog), Y: cpu.ResultY(prog)}

	if got.Equal(want) {
		return Benign, nil
	}
	if err := ValidateOutput(curve, got); err != nil {
		return Detected, nil
	}
	return Escaped, nil
}

// ValidateOutput is the secure-zone exit check: the result must be a
// finite point on the curve inside the prime-order subgroup.
func ValidateOutput(curve *ec.Curve, p ec.Point) error {
	return curve.Validate(p)
}

// CampaignReport aggregates a fault campaign.
type CampaignReport struct {
	Runs     int
	Benign   int
	Detected int
	Escaped  int
}

// Campaign injects n random single-bit faults at uniformly random
// cycles of the ladder phase and reports the outcome distribution. A
// sound countermeasure shows Escaped == 0.
//
// The sampling runs on the campaign engine: randomness is drawn
// serially in sample order (so the report is bit-identical to the
// historical serial loop for the same seed) while the simulations
// themselves fan out across workers. Each sample draws a fresh scalar
// and base point — for an exhaustive map of the fault space of one
// fixed computation, use Sweep, which shares a single reference run
// and resumes faulted runs from checkpoints.
func Campaign(curve *ec.Curve, tim coproc.Timing, n int, seed uint64) (*CampaignReport, error) {
	return CampaignWorkers(curve, tim, n, seed, 0)
}

// campaignJob is one random sample: a full computation plus one fault.
type campaignJob struct {
	k    modn.Scalar
	p    ec.Point
	inj  Injection
	trng uint64
}

// CampaignWorkers is Campaign with an explicit worker count (<= 0
// selects GOMAXPROCS). The report is identical for any worker count.
func CampaignWorkers(curve *ec.Curve, tim coproc.Timing, n int, seed uint64, workers int) (*CampaignReport, error) {
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	start, end := prog.IterationWindow(tim, 162, 0)
	d := rng.NewDRBG(seed)
	rep := &CampaignReport{}
	prepare := func(idx int) (campaignJob, error) {
		return campaignJob{
			k: curve.Order.RandNonZero(d.Uint64),
			p: curve.RandomPoint(d.Uint64),
			inj: Injection{
				Cycle: start + d.Intn(end-start),
				Reg:   d.Intn(coproc.NumRegs),
				Bit:   d.Intn(163),
			},
			trng: seed + uint64(idx),
		}, nil
	}
	acquire := func(worker, idx int, job campaignJob) (Result, error) {
		return RunWithFault(curve, tim, job.k, job.p, job.inj, job.trng)
	}
	// The integer tallies commute, but the serial fold (one shard) keeps
	// the run a plain in-order loop.
	_, err := campaign.Run(0, n, campaign.Config{Workers: workers, Shards: 1}, prepare, campaign.PerSample(acquire),
		func(int) *CampaignReport { return rep },
		func(_ int, rep *CampaignReport, _ int, _ campaignJob, res Result) error {
			rep.Runs++
			switch res {
			case Benign:
				rep.Benign++
			case Detected:
				rep.Detected++
			case Escaped:
				rep.Escaped++
			}
			return nil
		},
		func(int, *CampaignReport) error { return nil })
	if err != nil {
		return nil, err
	}
	return rep, nil
}
