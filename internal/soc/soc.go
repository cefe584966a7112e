// Package soc models the HW/SW co-design boundary of the paper's
// architecture level: "typically there is an embedded micro-controller
// with programmable co-processors ... Sensitive data should appear
// only on the internal data-bus, and should not be available through
// the instruction set. So, no strange combination of instructions
// should release the key or the private data."
//
// The package wraps the co-processor behind the command interface an
// MCU firmware would drive: a write-only key register, point/operand
// loading, operation start, status polling, and result read-back that
// only ever exposes result registers. The security property — no
// command sequence reveals key material — is enforced structurally
// (there is no read path) and fuzz-tested in the package tests.
package soc

import (
	"errors"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// Status codes returned by the command interface.
type Status uint8

// Device status values.
const (
	StatusIdle Status = iota
	StatusBusy
	StatusDone
	StatusFault
)

func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusBusy:
		return "busy"
	case StatusDone:
		return "done"
	case StatusFault:
		return "fault"
	default:
		return "unknown"
	}
}

// Device is the memory-mapped co-processor as firmware sees it.
type Device struct {
	curve *ec.Curve
	tim   coproc.Timing
	trng  *rng.DRBG

	// Write-only key register: there is deliberately no method that
	// returns it.
	key    modn.Scalar
	keySet bool

	point    ec.Point
	pointSet bool

	status  Status
	result  ec.Point
	xOnly   bool
	resultX gf2m.Element
	cycles  int
}

// NewDevice builds a device with the paper's default configuration.
func NewDevice(seed uint64) *Device {
	return &Device{
		curve: ec.K163(),
		tim:   coproc.DefaultTiming(),
		trng:  rng.NewDRBG(seed),
	}
}

// ErrBusy is returned when a command arrives while an operation runs.
var ErrBusy = errors.New("soc: device busy")

// ErrSequence is returned for commands issued out of order.
var ErrSequence = errors.New("soc: invalid command sequence")

// WriteKey loads the scalar register. Write-only: the key can be
// replaced but never read back through the interface.
func (d *Device) WriteKey(k modn.Scalar) error {
	if d.status == StatusBusy {
		return ErrBusy
	}
	if k.Cmp(d.curve.Order.N()) >= 0 {
		return errors.New("soc: scalar not reduced")
	}
	d.key = k
	d.keySet = true
	d.status = StatusIdle
	return nil
}

// WritePoint loads the base-point operand. The point is validated on
// load (the invalid-point guard): firmware cannot feed the secure zone
// an off-curve or small-subgroup point.
func (d *Device) WritePoint(p ec.Point) error {
	if d.status == StatusBusy {
		return ErrBusy
	}
	if err := d.curve.Validate(p); err != nil {
		return err
	}
	d.point = p
	d.pointSet = true
	return nil
}

// StartPointMul launches k*P with full y-recovery. The result is
// validated before it becomes readable; a corrupted computation parks
// the device in StatusFault with no readable result (the fault-attack
// countermeasure at the interface level).
func (d *Device) StartPointMul() error { return d.start(false) }

// StartXOnly launches the x-only variant used by the identification
// protocol.
func (d *Device) StartXOnly() error { return d.start(true) }

func (d *Device) start(xOnly bool) error {
	if d.status == StatusBusy {
		return ErrBusy
	}
	if !d.keySet || !d.pointSet {
		return ErrSequence
	}
	d.status = StatusBusy
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: xOnly})
	cpu := coproc.NewCPU(d.tim)
	cpu.Rand = d.trng.Uint64
	cpu.SetOperandConstants(d.point.X, d.curve.B, d.point.Y)
	cycles, err := cpu.Run(prog, d.key)
	if err != nil {
		d.status = StatusFault
		return err
	}
	d.cycles = cycles
	d.xOnly = xOnly
	if xOnly {
		d.resultX = cpu.ResultX(prog)
		if !d.subgroupX(d.resultX) {
			d.status = StatusFault
			return nil
		}
	} else {
		d.result = ec.Point{X: cpu.ResultX(prog), Y: cpu.ResultY(prog)}
		if err := d.curve.Validate(d.result); err != nil {
			d.status = StatusFault
			return nil
		}
	}
	d.status = StatusDone
	return nil
}

// subgroupX is the x-only result check: an x cannot be validated
// alone, so x must solve the curve equation and the point (x, y) with
// the solved y must pass the full path's Validate. That refuses x = 0
// (the order-2 point; infinity after a fault) and an x whose points lie
// outside the prime-order subgroup, which an x-only ladder of a
// subgroup point never ends on.
func (d *Device) subgroupX(x gf2m.Element) bool {
	y, ok := d.curve.SolveY(x)
	return ok && d.curve.Validate(ec.Point{X: x, Y: y}) == nil
}

// Poll returns the device status.
func (d *Device) Poll() Status { return d.status }

// Cycles returns the duration of the last completed operation — a
// public quantity by design (it is key-independent; the tests assert
// that too).
func (d *Device) Cycles() int { return d.cycles }

// ReadResult returns the completed full result. Only result registers
// are addressable; scalar and internal state are not.
func (d *Device) ReadResult() (ec.Point, error) {
	if d.status != StatusDone || d.xOnly {
		return ec.Point{}, ErrSequence
	}
	return d.result, nil
}

// ReadResultX returns the completed x-only result.
func (d *Device) ReadResultX() (gf2m.Element, error) {
	if d.status != StatusDone || !d.xOnly {
		return gf2m.Element{}, ErrSequence
	}
	return d.resultX, nil
}

// ClearKey zeroizes the key register (session teardown hygiene).
func (d *Device) ClearKey() {
	d.key = modn.Zero()
	d.keySet = false
}
