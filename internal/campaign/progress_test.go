package campaign_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	. "medsec/internal/campaign"
	"medsec/internal/obs"
)

// progressRecorder collects the sequence of Progress callbacks and
// checks the engine's contract: strictly increasing values, and on a
// successful run a final value equal to the total sample count.
type progressRecorder struct {
	seq []int
}

func (p *progressRecorder) cb() func(int) {
	return func(done int) { p.seq = append(p.seq, done) }
}

func (p *progressRecorder) verify(t *testing.T, total int) {
	t.Helper()
	if len(p.seq) == 0 {
		if total == 0 {
			return
		}
		t.Fatalf("no Progress calls for total=%d", total)
	}
	prev := 0
	for i, v := range p.seq {
		if v <= prev {
			t.Fatalf("Progress not monotone at call %d: %v", i, p.seq)
		}
		prev = v
	}
	if last := p.seq[len(p.seq)-1]; last != total {
		t.Fatalf("final Progress = %d, want total %d (seq %v)", last, total, p.seq)
	}
}

// TestProgressContract pins the contract across the matrix workers
// {1,2,7} x shards {1,4} ("run" is the serial fold, S = 1): the
// reported sequence is monotone and the final call reports the full
// sample count on success — for any scheduling.
func TestProgressContract(t *testing.T) {
	const total = 53 // deliberately not a multiple of any worker/shard count
	acquire := func(w, idx int, job int) (int, error) { return job * job, nil }
	check := func(t *testing.T, workers, shards int) {
		var rec progressRecorder
		sum := 0
		n, err := Run(0, total, Config{Workers: workers, Shards: shards, Lanes: 3, Progress: rec.cb()},
			func(idx int) (int, error) { return idx, nil }, PerSample(acquire),
			func(shard int) *int { v := 0; return &v },
			func(shard int, acc *int, idx, job, out int) error { *acc += out; return nil },
			func(shard int, acc *int) error { sum += *acc; return nil },
		)
		if err != nil || n != total {
			t.Fatalf("Run = (%d, %v), want (%d, nil)", n, err, total)
		}
		rec.verify(t, total)
	}
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("run/workers=%d", workers), func(t *testing.T) { check(t, workers, 1) })
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("sharded/workers=%d/shards=%d", workers, shards), func(t *testing.T) { check(t, workers, shards) })
		}
	}
}

// TestProgressContractEarlyStop: after a fold sentinel stops the run,
// the reported values never pass the stopping index — no phantom final
// call.
func TestProgressContractEarlyStop(t *testing.T) {
	const stopAt = 9
	var rec progressRecorder
	n, err := intRun(0, 1000, Config{Workers: 4, Shards: 1, Progress: rec.cb()}, echo,
		func(shard, acc, idx, job, out int) error {
			if idx == stopAt {
				return errStop
			}
			return nil
		}, noMerge)
	if !errors.Is(err, errStop) || n != stopAt {
		t.Fatalf("Run = (%d, %v), want (%d, stop)", n, err, stopAt)
	}
	if len(rec.seq) > 0 {
		rec.verify(t, rec.seq[len(rec.seq)-1])
		if last := rec.seq[len(rec.seq)-1]; last > stopAt {
			t.Fatalf("Progress reported %d past the stop at %d", last, stopAt)
		}
	}
}

// TestCampaignMetricsWiring: an instrumented run accounts every sample
// exactly once at each stage and publishes its run and merge timings;
// the disabled default (nil registry) is exercised by every other test
// in this package.
func TestCampaignMetricsWiring(t *testing.T) {
	const total = 40
	reg := obs.New()
	n, err := intRun(0, total, Config{Workers: 3, Shards: 4, Lanes: 3, Metrics: reg}, echo, noFold,
		func(shard, acc int) error { time.Sleep(time.Microsecond); return nil })
	if err != nil || n != total {
		t.Fatalf("Run = (%d, %v)", n, err)
	}
	for _, name := range []string{"campaign_prepared", "campaign_acquired", "campaign_folded"} {
		if got := reg.Counter(name).Value(); got != total {
			t.Fatalf("%s = %d, want %d", name, got, total)
		}
	}
	for name, want := range map[string]float64{"campaign_workers": 3, "campaign_shards": 4, "campaign_lanes": 3} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"campaign_run_ns", "campaign_merge_ns"} {
		if reg.Gauge(name).Value() <= 0 {
			t.Fatalf("%s not stamped", name)
		}
	}
	if fill := reg.Histogram("campaign_batch_fill", nil); fill.Sum() != total {
		t.Fatalf("campaign_batch_fill sums to %v, want %d", fill.Sum(), total)
	}

	// A failed run still publishes its run time; the merge never ran.
	freg := obs.New()
	if _, err := intRun(0, total, Config{Workers: 3, Metrics: freg}, echo,
		func(shard, acc, idx, job, out int) error { return errStop }, noMerge); !errors.Is(err, errStop) {
		t.Fatalf("failing run returned %v", err)
	}
	if freg.Gauge("campaign_run_ns").Value() <= 0 {
		t.Fatal("campaign_run_ns not stamped on a failed run")
	}
	if got := freg.Gauge("campaign_merge_ns").Value(); got != 0 {
		t.Fatalf("campaign_merge_ns = %v on a run that never merged", got)
	}
}

// TestBufferPoolStats pins the pool's self-accounting: first Get is a
// miss, recycled Gets are hits, and the hit rate reflects both.
func TestBufferPoolStats(t *testing.T) {
	var bp BufferPool[float64]
	b := bp.Get(64)
	bp.Put(b)
	for i := 0; i < 9; i++ {
		b = bp.Get(64)
		bp.Put(b)
	}
	s := bp.Stats()
	if s.Misses < 1 {
		t.Fatalf("stats = %+v, want at least one miss", s)
	}
	if s.Hits+s.Misses != 10 {
		t.Fatalf("stats = %+v, want 10 Gets accounted", s)
	}
	if hr := s.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", hr)
	}
	if (PoolStats{}).HitRate() != 0 {
		t.Fatal("empty PoolStats hit rate not 0")
	}
}
