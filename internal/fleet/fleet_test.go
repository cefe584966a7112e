package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/design"
)

// testFleet is a small heterogeneous fleet exercising every moving
// part: multiple cohorts, channel jitter, age spread, a storm, and a
// batteryless cohort.
func testFleet(devices int) Config {
	cfg := HospitalFleet(devices, 0.1)
	cfg.SessionsPerDevice = 2
	cfg.Storm = &StormConfig{Sessions: 1, LossBoost: 0.25}
	cfg.Seed = 42
	return cfg
}

// reports must be compared by rendered bytes AND accumulator state.
func sameReport(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if !reflect.DeepEqual(a.Accum, b.Accum) {
		t.Fatalf("%s: accumulators differ", label)
	}
	if a.Render() != b.Render() {
		t.Fatalf("%s: rendered reports differ", label)
	}
}

// TestDeterminismMatrix pins the engine's core contract across the
// full matrix the issue names: workers {1, 2, 7} × internal shard
// splits {1, 4} all produce byte-identical reports.
func TestDeterminismMatrix(t *testing.T) {
	cfg := testFleet(10)
	ref, err := Run(cfg, RunOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		for _, shards := range []int{1, 4} {
			rep, err := Run(cfg, RunOptions{Workers: workers, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "workers/shards variation", ref, rep)
		}
	}
}

// TestAccumMergeAssociativeOrderIndependent pins the algebra the
// shard machinery relies on, directly on accumulators: each part
// folds the device outcomes of one third of the fleet.
func TestAccumMergeAssociativeOrderIndependent(t *testing.T) {
	cfg := testFleet(9)
	cache := design.NewCache()
	noms, err := nominals(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	l := newLab(cache)
	parts := make([]*Accum, 3)
	for s := range parts {
		parts[s] = newAccum(cfg)
		for idx := 3 * s; idx < 3*s+3; idx++ {
			out, err := l.device(cfg, noms, idx)
			if err != nil {
				t.Fatal(err)
			}
			parts[s].fold(out)
		}
	}
	orders := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
	var ref *Accum
	for _, ord := range orders {
		m := newAccum(cfg)
		for _, s := range ord {
			if err := m.Merge(parts[s]); err != nil {
				t.Fatal(err)
			}
		}
		if ref == nil {
			ref = m
		} else if !reflect.DeepEqual(stripFloatSums(ref), stripFloatSums(m)) {
			t.Fatalf("merge order %v changed the accumulator", ord)
		}
	}
	// Associativity: (p0 ⊕ p1) ⊕ p2 == p0 ⊕ (p1 ⊕ p2).
	left := newAccum(cfg)
	for _, s := range []int{0, 1} {
		if err := left.Merge(parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(parts[2]); err != nil {
		t.Fatal(err)
	}
	bc := newAccum(cfg)
	for _, s := range []int{1, 2} {
		if err := bc.Merge(parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	right := newAccum(cfg)
	if err := right.Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripFloatSums(left), stripFloatSums(right)) {
		t.Fatal("accumulator merge is not associative")
	}
}

// stripFloatSums zeroes the only order-sensitive field (the latency
// histogram's float Sum, which reports never read) so DeepEqual tests
// the exact-merge contract.
func stripFloatSums(a *Accum) *Accum {
	buf, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	c := &Accum{}
	if err := json.Unmarshal(buf, c); err != nil {
		panic(err)
	}
	for _, co := range c.Cohorts {
		co.Latency.Sum = 0
	}
	return c
}

// TestKillAndResume interrupts a fleet run mid-flight via context
// cancellation, then resumes from the checkpoint and pins the final
// report byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	cfg := testFleet(10)
	ref, err := Run(cfg, RunOptions{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	devices := 0
	_, err = Run(cfg, RunOptions{
		Workers: 2, Shards: 2,
		Ctx:             ctx,
		CheckpointPath:  ckpt,
		CheckpointEvery: 2,
		Progress: func(done int) {
			devices = done
			if done >= 4 {
				cancel() // kill mid-campaign
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	if devices >= 10 {
		t.Fatalf("interrupt landed after the full run (%d devices)", devices)
	}

	resumed, err := Run(cfg, RunOptions{
		Workers: 2, Shards: 2,
		CheckpointPath:  ckpt,
		CheckpointEvery: 2,
		Resume:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "kill-and-resume", ref, resumed)

	// Resuming with a drifted config must be refused.
	drift := cfg
	drift.Seed++
	if _, err := Run(drift, RunOptions{
		Workers: 2, Shards: 2, CheckpointPath: ckpt, CheckpointEvery: 2, Resume: true,
	}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different config")
	}
}

// TestCacheEffectiveness pins the perf core's premise on a real fleet:
// device count scales, distinct builds do not.
func TestCacheEffectiveness(t *testing.T) {
	cfg := testFleet(16)
	rep, err := Run(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.CacheStats
	// 4 cohorts + storm variants share base identities (loss is a
	// specialization knob), so the distinct builds stay in single
	// digits regardless of fleet size.
	if cs.Size > 8 {
		t.Fatalf("distinct builds = %d for a 4-cohort fleet; cache is not sharing", cs.Size)
	}
	if cs.HitRate() < 0.7 {
		t.Fatalf("cache hit rate %.2f; expected the overwhelming majority of builds to hit", cs.HitRate())
	}
}

// TestConfigValidation covers the refusals.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cohorts = nil },
		func(c *Config) { c.Cohorts[0].Name = "" },
		func(c *Config) { c.Cohorts[1].Name = c.Cohorts[0].Name },
		func(c *Config) { c.Cohorts[0].Devices = 0 },
		func(c *Config) { c.Cohorts[0].Point.Loss = 3 },
		func(c *Config) { c.Cohorts[0].SpecYears = -1 },
		func(c *Config) { c.SessionsPerDevice = 0 },
		func(c *Config) { c.Storm.Sessions = 0 },
		func(c *Config) { c.Storm.LossBoost = 2 },
		func(c *Config) {
			c.Cohorts[0].Point.Channel = design.ChannelPerfect
			c.Cohorts[0].Point.Loss = 0
			c.Cohorts[0].LossJitter = 0.1
		},
	}
	for i, mut := range bad {
		cfg := testFleet(8)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d validated", i)
		}
	}
	if err := testFleet(8).Validate(); err != nil {
		t.Fatalf("test fleet invalid: %v", err)
	}
}

// TestRunRefusesNegativeShards: a negative reduction shard count is an
// error naming the knob, not a silent fallback to the default layout.
func TestRunRefusesNegativeShards(t *testing.T) {
	for _, shards := range []int{-1, -4} {
		_, err := Run(testFleet(4), RunOptions{Workers: 1, Shards: shards})
		if err == nil || !strings.Contains(err.Error(), "RunOptions.Shards") {
			t.Fatalf("Shards=%d: err = %v, want a refusal naming RunOptions.Shards", shards, err)
		}
	}
}
