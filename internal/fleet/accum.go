package fleet

import (
	"fmt"
	"math"

	"medsec/internal/obs"
)

// latencyBoundsUS are the authentication-latency histogram buckets in
// microseconds (50 ms … 50 s — a software-ladder session at the
// prototype's 847.5 kHz clock takes on the order of seconds). Bucket
// counts are integers, so merged shards reproduce single-stream
// quantiles exactly (obs.HistogramSnapshot.Quantile).
var latencyBoundsUS = []float64{
	5e4, 1e5, 1.5e5, 2e5, 2.5e5, 3e5, 3.5e5, 4e5, 5e5, 6.5e5, 8e5, 1e6,
	1.5e6, 2e6, 3e6, 5e6, 7.5e6, 1e7, 2e7, 5e7,
}

// lifetimeCapYears bounds the battery-lifetime quantization so an
// (effectively) infinite lifetime stays a finite integer.
const lifetimeCapYears = 200

// deviceOutcome is one device's folded result — integers only (plus
// the latency list, quantized to µs), so folding is exactly
// associative across any partition of the index space.
type deviceOutcome struct {
	cohort int

	sessions, completed, linkAborts, otherAborts int64
	stormSessions, stormCompleted                int64
	retries                                      int64
	energyPJ                                     int64
	latencyUS                                    []int64 // completed sessions only

	hasBattery   bool
	lifetimeCY   int64 // remaining security lifetime, centi-years
	outlivedSpec bool
}

// CohortAccum is one cohort's mergeable accumulator. Every field is
// an exact integer except Latency.Sum (unused by reports — means come
// from LatencyUSSum).
type CohortAccum struct {
	Name        string `json:"name"`
	FirmwareRev string `json:"firmware_rev,omitempty"`

	Devices        int64 `json:"devices"`
	Sessions       int64 `json:"sessions"`
	Completed      int64 `json:"completed"`
	LinkAborts     int64 `json:"link_aborts"`
	OtherAborts    int64 `json:"other_aborts"`
	StormSessions  int64 `json:"storm_sessions"`
	StormCompleted int64 `json:"storm_completed"`
	Retries        int64 `json:"retries"`
	EnergyPJ       int64 `json:"energy_pj"`

	LatencyUSSum int64                 `json:"latency_us_sum"`
	Latency      obs.HistogramSnapshot `json:"latency"`

	BatteryDevices int64 `json:"battery_devices"`
	LifetimeCYSum  int64 `json:"lifetime_cy_sum"`
	MinLifetimeCY  int64 `json:"min_lifetime_cy"`
	OutlivedSpec   int64 `json:"outlived_spec"`
}

func newCohortAccum(co Cohort) *CohortAccum {
	return &CohortAccum{
		Name:          co.Name,
		FirmwareRev:   co.FirmwareRev,
		Latency:       obs.NewHistogramSnapshot(latencyBoundsUS),
		MinLifetimeCY: math.MaxInt64,
	}
}

func (a *CohortAccum) fold(out deviceOutcome) {
	a.Devices++
	a.Sessions += out.sessions
	a.Completed += out.completed
	a.LinkAborts += out.linkAborts
	a.OtherAborts += out.otherAborts
	a.StormSessions += out.stormSessions
	a.StormCompleted += out.stormCompleted
	a.Retries += out.retries
	a.EnergyPJ += out.energyPJ
	for _, us := range out.latencyUS {
		a.LatencyUSSum += us
		a.Latency.Observe(float64(us))
	}
	if out.hasBattery {
		a.BatteryDevices++
		a.LifetimeCYSum += out.lifetimeCY
		if out.lifetimeCY < a.MinLifetimeCY {
			a.MinLifetimeCY = out.lifetimeCY
		}
		if out.outlivedSpec {
			a.OutlivedSpec++
		}
	}
}

// merge folds another shard's accumulator for the same cohort into a.
// Min is order-independent; every sum is an exact integer; histogram
// bucket counts add exactly.
func (a *CohortAccum) merge(o *CohortAccum) error {
	if a.Name != o.Name {
		return fmt.Errorf("fleet: merging cohort %q into %q", o.Name, a.Name)
	}
	a.Devices += o.Devices
	a.Sessions += o.Sessions
	a.Completed += o.Completed
	a.LinkAborts += o.LinkAborts
	a.OtherAborts += o.OtherAborts
	a.StormSessions += o.StormSessions
	a.StormCompleted += o.StormCompleted
	a.Retries += o.Retries
	a.EnergyPJ += o.EnergyPJ
	a.LatencyUSSum += o.LatencyUSSum
	if err := a.Latency.Merge(o.Latency); err != nil {
		return fmt.Errorf("fleet: cohort %q: %w", a.Name, err)
	}
	a.BatteryDevices += o.BatteryDevices
	a.LifetimeCYSum += o.LifetimeCYSum
	if o.MinLifetimeCY < a.MinLifetimeCY {
		a.MinLifetimeCY = o.MinLifetimeCY
	}
	a.OutlivedSpec += o.OutlivedSpec
	return nil
}

// Accum is the fleet-wide accumulator: one CohortAccum per configured
// cohort, in configuration order.
type Accum struct {
	Cohorts []*CohortAccum `json:"cohorts"`
}

func newAccum(cfg Config) *Accum {
	a := &Accum{Cohorts: make([]*CohortAccum, len(cfg.Cohorts))}
	for i, co := range cfg.Cohorts {
		a.Cohorts[i] = newCohortAccum(co)
	}
	return a
}

func (a *Accum) fold(out deviceOutcome) {
	a.Cohorts[out.cohort].fold(out)
}

// Merge folds another accumulator (same cohort layout) into a.
func (a *Accum) Merge(o *Accum) error {
	if len(a.Cohorts) != len(o.Cohorts) {
		return fmt.Errorf("fleet: merging %d cohorts into %d", len(o.Cohorts), len(a.Cohorts))
	}
	for i := range a.Cohorts {
		if o.Cohorts[i] == nil {
			return fmt.Errorf("fleet: merging a nil cohort %d", i)
		}
		if err := a.Cohorts[i].merge(o.Cohorts[i]); err != nil {
			return err
		}
	}
	return nil
}

// totals sums the cohort accumulators into one fleet-wide view (a
// derived value, recomputed on demand — never merged, so it cannot
// drift from the cohort sums).
func (a *Accum) totals() *CohortAccum {
	t := &CohortAccum{
		Name:          "fleet",
		Latency:       obs.NewHistogramSnapshot(latencyBoundsUS),
		MinLifetimeCY: math.MaxInt64,
	}
	for _, c := range a.Cohorts {
		cc := *c // merge reads, never writes, the source
		cc.Name, cc.FirmwareRev = "fleet", ""
		if err := t.merge(&cc); err != nil {
			panic(err) // identical bounds by construction
		}
	}
	return t
}
