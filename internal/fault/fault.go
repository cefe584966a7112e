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

	"medsec/internal/coproc"
	"medsec/internal/ec"
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

// classify grades a faulted result against the fault-free one under
// output validation.
func classify(curve *ec.Curve, want, got ec.Point) Result {
	if got.Equal(want) {
		return Benign
	}
	if err := ValidateOutput(curve, got); err != nil {
		return Detected
	}
	return Escaped
}

// ValidateOutput is the secure-zone exit check: the result must be a
// finite point on the curve inside the prime-order subgroup.
func ValidateOutput(curve *ec.Curve, p ec.Point) error {
	return curve.Validate(p)
}
