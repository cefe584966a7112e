package fault

import (
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// RunWithFault executes one point multiplication k*P with the given
// injection and classifies the outcome under output validation. Both
// the reference and the faulted run are simulated evented from cycle
// 0, so it is the oracle Sweep's record-list path is tested against.
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
	return classify(curve, want, ec.Point{X: cpu.ResultX(prog), Y: cpu.ResultY(prog)}), nil
}
