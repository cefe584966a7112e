package battery

import (
	"math"
	"testing"
)

func paperWorkload() Workload {
	return Workload{
		SessionsPerDay:        4,
		SessionEnergyJ:        63.7e-6, // from the E11 session accounting
		TelemetryPerDay:       24,
		TelemetryEnergyJ:      5e-6,
		FirmwareChecksPerYear: 2,
		FirmwareCheckEnergyJ:  10.2e-6, // 2 point multiplications
	}
}

func TestSecurityBudgetOutlivesTheDevice(t *testing.T) {
	// The paper's design goal: 5.1 µJ point multiplications make the
	// cryptography irrelevant to the battery. With a 1% security
	// budget and a realistic duty cycle, the security lifetime must
	// exceed the 15-year device ceiling by a wide margin.
	cell := PacemakerCell()
	years, err := cell.SecurityLifetimeYears(paperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if years < 50 {
		t.Fatalf("security budget lasts only %.1f years; the design goal is 'not the bottleneck'", years)
	}
}

func TestHeavyWorkloadShortensLife(t *testing.T) {
	// Sanity in the other direction: a device doing a point
	// multiplication every second would notice.
	cell := PacemakerCell()
	heavy := Workload{SessionsPerDay: 86400, SessionEnergyJ: 5.1e-6}
	light := paperWorkload()
	hy, err := cell.SecurityLifetimeYears(heavy)
	if err != nil {
		t.Fatal(err)
	}
	ly, err := cell.SecurityLifetimeYears(light)
	if err != nil {
		t.Fatal(err)
	}
	if hy >= ly {
		t.Fatal("heavier workload should shorten the security lifetime")
	}
	if hy > 2 {
		t.Fatalf("PM-per-second lifetime %.2f years; model insensitive to load", hy)
	}
}

func TestZeroWorkload(t *testing.T) {
	cell := PacemakerCell()
	cell.SelfDischargePerYear = 0
	years, err := cell.SecurityLifetimeYears(Workload{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(years, 1) {
		t.Fatalf("zero workload, zero self-discharge should be infinite, got %v", years)
	}
}

func TestValidation(t *testing.T) {
	bad := Cell{CapacityJ: -1, SecurityBudgetFraction: 0.1}
	if _, err := bad.SecurityLifetimeYears(Workload{}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	bad = Cell{CapacityJ: 1, SecurityBudgetFraction: 2}
	if _, err := bad.SecurityLifetimeYears(Workload{}); err == nil {
		t.Fatal("budget fraction > 1 accepted")
	}
}
