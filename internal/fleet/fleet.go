// Package fleet is the population-scale session engine: it simulates
// N heterogeneous implanted devices — cohorts of design.Point variants
// crossed with channel profiles, battery ages and firmware revisions —
// over longitudinal duty cycles, and folds the per-device session
// outcomes into exactly mergeable fleet accumulators.
//
// The paper evaluates its energy/security trade-offs per device; the
// deployment it targets is a hospital network or national fleet of
// pacemakers. This package answers the population questions a
// single-device run cannot: the p99 authentication latency under 10%
// loss, the fleet-wide security energy budget, the fraction of
// devices whose battery outlives its spec.
//
// # Determinism and merge semantics
//
// Every per-device quantity is a pure function of (Config, device
// index): cohort membership, channel jitter, battery age, all session
// seeds. Quantities that must survive re-partitioning are integers —
// energy is quantized to picojoules, latency to microseconds, battery
// lifetime to centi-years — because integer addition is associative
// and commutative where float addition is not. A fleet report is
// therefore bit-identical for any worker count, any internal shard
// count, and a run killed and resumed from its checkpoint.
//
// # Throughput
//
// Three mechanisms keep a large fleet tractable in one process: the
// design.Cache builds each distinct hardware configuration exactly
// once (devices differ per-cohort only in specialization knobs — loss
// jitter, distance, seeds); each worker owns a pooled session lab
// whose link pair is Reset in place instead of reallocated; and
// execution runs on campaign.Run with per-shard accumulators.
package fleet

import (
	"fmt"

	"medsec/internal/design"
	"medsec/internal/rng"
)

// Cohort is one homogeneous slice of the fleet: Devices implants
// sharing a hardware design point, a duty cycle, and a deployment
// vintage. Per-device heterogeneity inside a cohort comes from the
// jitter knobs — all of which are design-cache specialization knobs,
// so a cohort of any size pays exactly one Build().
type Cohort struct {
	// Name labels the cohort in reports (must be unique).
	Name string `json:"name"`
	// Devices is the cohort's population.
	Devices int `json:"devices"`
	// Point is the cohort's hardware/protocol design point. Per-device
	// seeds and channel jitter are applied on top of it.
	Point design.Point `json:"point"`
	// SessionsPerDay is the longitudinal duty cycle the battery model
	// prices (interrogations, telemetry check-ins).
	SessionsPerDay float64 `json:"sessions_per_day"`
	// BatteryAgeYears is the cohort's mean battery age at simulation
	// time; AgeSpreadYears spreads individual devices uniformly in
	// [age-spread, age+spread] (deterministically per device).
	BatteryAgeYears float64 `json:"battery_age_years"`
	AgeSpreadYears  float64 `json:"age_spread_years,omitempty"`
	// FirmwareRev tags the cohort's firmware generation (report label).
	FirmwareRev string `json:"firmware_rev,omitempty"`
	// SpecYears is the device's rated service life; a device "outlives
	// spec" when battery age + remaining security lifetime covers it.
	SpecYears float64 `json:"spec_years"`
	// LossJitter perturbs each device's channel loss uniformly by
	// ±LossJitter (clamped to [0, 1]); DistanceJitterM does the same
	// for link distance. Both are specialization knobs — they never
	// split the build cache.
	LossJitter      float64 `json:"loss_jitter,omitempty"`
	DistanceJitterM float64 `json:"distance_jitter_m,omitempty"`
}

// StormConfig models the re-authentication storm after a reader/
// programmer outage: every device re-authenticates Sessions extra
// times over a channel degraded by LossBoost (congested band, crowded
// ward).
type StormConfig struct {
	Sessions  int     `json:"sessions"`
	LossBoost float64 `json:"loss_boost"`
}

// Config is one fleet experiment. The JSON-visible fields are the
// experiment identity — they are embedded in checkpoints and compared
// on resume. Runtime knobs (workers, shards, paths) live in
// RunOptions, never in the identity.
type Config struct {
	Cohorts []Cohort `json:"cohorts"`
	// SessionsPerDevice is the number of nominal-channel sessions each
	// device runs.
	SessionsPerDevice int `json:"sessions_per_device"`
	// Storm, when non-nil, appends a re-auth storm to every device.
	Storm *StormConfig `json:"storm,omitempty"`
	// Seed is the fleet master seed; every per-device stream derives
	// from it.
	Seed uint64 `json:"seed"`
}

// TotalDevices returns the fleet population.
func (c Config) TotalDevices() int {
	n := 0
	for _, co := range c.Cohorts {
		n += co.Devices
	}
	return n
}

// Validate checks the fleet definition and names the offending knob.
func (c Config) Validate() error {
	if len(c.Cohorts) == 0 {
		return fmt.Errorf("fleet: no cohorts")
	}
	seen := map[string]bool{}
	for i, co := range c.Cohorts {
		if co.Name == "" {
			return fmt.Errorf("fleet: cohort %d has no name", i)
		}
		if seen[co.Name] {
			return fmt.Errorf("fleet: duplicate cohort name %q", co.Name)
		}
		seen[co.Name] = true
		if co.Devices < 1 {
			return fmt.Errorf("fleet: cohort %q has %d devices", co.Name, co.Devices)
		}
		if err := co.Point.Validate(); err != nil {
			return fmt.Errorf("fleet: cohort %q: %w", co.Name, err)
		}
		if co.SessionsPerDay < 0 || co.BatteryAgeYears < 0 || co.AgeSpreadYears < 0 ||
			co.SpecYears < 0 || co.LossJitter < 0 || co.DistanceJitterM < 0 {
			return fmt.Errorf("fleet: cohort %q has a negative knob", co.Name)
		}
		if co.LossJitter > 0 && co.Point.Channel == design.ChannelPerfect {
			return fmt.Errorf("fleet: cohort %q jitters loss on a perfect channel", co.Name)
		}
	}
	if c.SessionsPerDevice < 1 {
		return fmt.Errorf("fleet: SessionsPerDevice %d must be at least 1", c.SessionsPerDevice)
	}
	if c.Storm != nil {
		if c.Storm.Sessions < 1 {
			return fmt.Errorf("fleet: storm with %d sessions", c.Storm.Sessions)
		}
		if c.Storm.LossBoost < 0 || c.Storm.LossBoost > 1 {
			return fmt.Errorf("fleet: storm LossBoost %v out of range [0, 1]", c.Storm.LossBoost)
		}
	}
	return nil
}

// cohortOf maps a global device index to its cohort (cumulative-count
// lookup; cohort blocks are contiguous in index space).
func (c Config) cohortOf(idx int) (Cohort, int) {
	for ci, co := range c.Cohorts {
		if idx < co.Devices {
			return co, ci
		}
		idx -= co.Devices
	}
	panic(fmt.Sprintf("fleet: device index %d outside fleet", idx))
}

// Per-device substream tags (design.MixSeed third argument). Session
// streams use 100+rep and stormStream+rep, so tags below 100 are
// reserved for device-level knobs.
const (
	streamKnobs   = 11 // channel jitter, battery age
	streamSeed    = 12 // design point noise seed
	streamTRNG    = 13 // design point TRNG seed
	streamParties = 21 // device/reader key generation + protocol DRBG
	streamSession = 100
	streamStorm   = 1 << 20
)

// u01 maps one DRBG draw to [0, 1).
func u01(d *rng.DRBG) float64 { return float64(d.Uint64()>>11) * (1.0 / (1 << 53)) }

// deviceParams is the fully specialized per-device configuration —
// a pure function of (Config, idx).
type deviceParams struct {
	cohort   int
	point    design.Point
	ageYears float64
}

// deviceParams derives device idx's specialized design point and
// battery age from the per-device knob stream.
func (c Config) deviceParams(idx int) deviceParams {
	co, ci := c.cohortOf(idx)
	p := co.Point
	d := rng.NewDRBG(design.MixSeed(c.Seed, idx, streamKnobs))
	if co.LossJitter > 0 {
		l := p.Loss + (2*u01(d)-1)*co.LossJitter
		if l < 0 {
			l = 0
		}
		if l > 1 {
			l = 1
		}
		p.Loss = l
	}
	if co.DistanceJitterM > 0 {
		dist := p.DistanceM + (2*u01(d)-1)*co.DistanceJitterM
		if dist < 0.1 {
			dist = 0.1
		}
		p.DistanceM = dist
	}
	age := co.BatteryAgeYears
	if co.AgeSpreadYears > 0 {
		age += (2*u01(d) - 1) * co.AgeSpreadYears
		if age < 0 {
			age = 0
		}
	}
	p.Name = co.Name
	p.Seed = design.MixSeed(c.Seed, idx, streamSeed)
	p.TRNGSeed = design.MixSeed(c.Seed, idx, streamTRNG)
	return deviceParams{cohort: ci, point: p, ageYears: age}
}

// stormPoint derives the degraded-channel variant of a device point —
// another specialization of the same build identity (or of the IID
// identity when the base channel is perfect).
func stormPoint(p design.Point, boost float64) design.Point {
	sp := p
	if sp.Channel == design.ChannelPerfect {
		sp.Channel = design.ChannelIID
	}
	sp.Loss += boost
	if sp.Loss > 1 {
		sp.Loss = 1
	}
	return sp
}
