// Package battery models the implant's energy budget — the resource
// every design decision in the paper ultimately serves ("the battery
// of a pacemaker will last for 5 to 15 years before it is replaced").
// It prices a security workload (sessions, telemetry, firmware
// verifications) against a primary-cell budget with self-discharge,
// and answers the design question: does the cryptography shorten the
// device's life?
package battery

import (
	"errors"
	"math"
)

// Cell is a primary battery model.
type Cell struct {
	// CapacityJ is the total usable energy.
	CapacityJ float64
	// SelfDischargePerYear is the fraction of the *initial* capacity
	// lost per year regardless of load (LiI cells: ~1%/year).
	SelfDischargePerYear float64
	// SecurityBudgetFraction is the share of capacity the designer
	// allots to security functions (the rest pays for pacing,
	// sensing, telemetry radio baseline, ...).
	SecurityBudgetFraction float64
}

// PacemakerCell returns a typical pacemaker LiI cell: ~2 Ah at 2.8 V
// ≈ 20 kJ, 1 %/year self-discharge, 1 % of capacity allotted to
// security.
func PacemakerCell() Cell {
	return Cell{
		CapacityJ:              20e3,
		SelfDischargePerYear:   0.01,
		SecurityBudgetFraction: 0.01,
	}
}

// Workload is the security duty cycle.
type Workload struct {
	// SessionsPerDay is the number of authenticated sessions.
	SessionsPerDay float64
	// SessionEnergyJ is the device energy per session (computation +
	// radio; from the protocol ledger).
	SessionEnergyJ float64
	// TelemetryPerDay and TelemetryEnergyJ price periodic sealed
	// measurements.
	TelemetryPerDay  float64
	TelemetryEnergyJ float64
	// FirmwareChecksPerYear and FirmwareCheckEnergyJ price signature
	// verifications (2 point multiplications each).
	FirmwareChecksPerYear float64
	FirmwareCheckEnergyJ  float64
}

// PerYearJ returns the workload's annual energy.
func (w Workload) PerYearJ() float64 {
	daily := w.SessionsPerDay*w.SessionEnergyJ + w.TelemetryPerDay*w.TelemetryEnergyJ
	return daily*365 + w.FirmwareChecksPerYear*w.FirmwareCheckEnergyJ
}

// SecurityLifetimeYears returns how many years the security budget
// sustains the workload, accounting for self-discharge of the budget
// share. Returns +Inf when the workload is zero.
func (c Cell) SecurityLifetimeYears(w Workload) (float64, error) {
	if c.CapacityJ <= 0 || c.SecurityBudgetFraction <= 0 || c.SecurityBudgetFraction > 1 {
		return 0, errors.New("battery: invalid cell parameters")
	}
	budget := c.CapacityJ * c.SecurityBudgetFraction
	annual := w.PerYearJ() + budget*c.SelfDischargePerYear
	if annual <= 0 {
		return math.Inf(1), nil
	}
	return budget / annual, nil
}
