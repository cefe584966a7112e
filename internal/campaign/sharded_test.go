package campaign_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	. "medsec/internal/campaign"
	"medsec/internal/trace"
)

// shardedStats runs a campaign folding into per-shard trace.OnlineStats
// accumulators and returns the merged (mean, variance) — the exact
// reduction shape the SCA campaigns use.
func shardedStats(t *testing.T, workers, shards, from, to int, shake bool) ([]float64, []float64) {
	t.Helper()
	acquire := func(worker, idx int, job uint64) (trace.Trace, error) {
		if shake && idx%3 == 0 {
			time.Sleep(time.Duration(idx%5) * 50 * time.Microsecond)
		}
		v := float64(idx)*1.5 + float64(job)
		return trace.Trace{Samples: []float64{v, v * v, v / 3}}, nil
	}
	final := trace.NewOnlineStats()
	n, err := Run(from, to, Config{Workers: workers, Shards: shards},
		streamPrepare(), PerSample(acquire),
		func(shard int) *trace.OnlineStats { return trace.NewOnlineStats() },
		func(shard int, acc *trace.OnlineStats, idx int, job uint64, tr trace.Trace) error {
			return acc.Add(tr.Samples)
		},
		func(shard int, acc *trace.OnlineStats) error { return final.Merge(acc) })
	if err != nil {
		t.Fatal(err)
	}
	if n != to-from {
		t.Fatalf("folded %d, want %d", n, to-from)
	}
	mean, err := final.Mean()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := final.Variance()
	if err != nil {
		t.Fatal(err)
	}
	return mean, vr
}

// TestRunMultiShardDeterminismAcrossWorkers pins the engine's core
// contract: at a FIXED shard count, the merged statistics are
// bit-identical for any worker count — shard membership is a pure
// function of the index and folds are serialized per shard in index
// order, so scheduling never touches the reduction tree.
func TestRunMultiShardDeterminismAcrossWorkers(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		refMean, refVar := shardedStats(t, 1, shards, 3, 120, true)
		for _, workers := range []int{2, 7, 13} {
			mean, vr := shardedStats(t, workers, shards, 3, 120, true)
			for i := range refMean {
				if mean[i] != refMean[i] || vr[i] != refVar[i] {
					t.Fatalf("shards=%d workers=%d: merged stats differ from single-worker run at sample %d: mean %.17g vs %.17g, var %.17g vs %.17g",
						shards, workers, i, mean[i], refMean[i], vr[i], refVar[i])
				}
			}
		}
	}
}

// TestRunSingleShardDeterminismMatchesSerial pins that S=1
// reproduces the serial reference loop bit for bit: one shard means one
// cursor over the whole range.
func TestRunSingleShardDeterminismMatchesSerial(t *testing.T) {
	acquire := func(worker, idx int, job uint64) (trace.Trace, error) {
		v := float64(idx)*1.5 + float64(job)
		return trace.Trace{Samples: []float64{v, v * v}}, nil
	}
	serial := trace.NewOnlineStats()
	if err := serialRef(0, 80, streamPrepare(), acquire,
		func(idx int, job uint64, tr trace.Trace) error { return serial.Add(tr.Samples) }); err != nil {
		t.Fatal(err)
	}
	sharded := trace.NewOnlineStats()
	if _, err := Run(0, 80, Config{Workers: 5, Shards: 1, Lanes: 3}, streamPrepare(), PerSample(acquire),
		func(shard int) *trace.OnlineStats { return trace.NewOnlineStats() },
		func(shard int, acc *trace.OnlineStats, idx int, job uint64, tr trace.Trace) error {
			return acc.Add(tr.Samples)
		},
		func(shard int, acc *trace.OnlineStats) error { return sharded.Merge(acc) }); err != nil {
		t.Fatal(err)
	}
	sm, _ := serial.Mean()
	sv, _ := serial.Variance()
	gm, _ := sharded.Mean()
	gv, _ := sharded.Variance()
	for i := range sm {
		if gm[i] != sm[i] || gv[i] != sv[i] {
			t.Fatalf("S=1 diverged from serial fold at sample %d: mean %.17g vs %.17g, var %.17g vs %.17g",
				i, gm[i], sm[i], gv[i], sv[i])
		}
	}
}

// TestRunCrossShardAgreement pins the rounding contract across
// shard counts: different S reassociate the floating-point reduction,
// so the statistics agree only to ~1e-12 relative — never exactly in
// general, never worse than that.
func TestRunCrossShardAgreement(t *testing.T) {
	refMean, refVar := shardedStats(t, 3, 1, 0, 200, false)
	for _, shards := range []int{4, 16} {
		mean, vr := shardedStats(t, 3, shards, 0, 200, false)
		check := func(name string, got, want []float64) {
			for i := range want {
				d := got[i] - want[i]
				if d < 0 {
					d = -d
				}
				m := want[i]
				if m < 0 {
					m = -m
				}
				if m < 1 {
					m = 1
				}
				if d > 1e-12*m {
					t.Fatalf("shards=%d: %s[%d] differs beyond rounding: %.17g vs %.17g", shards, name, i, got[i], want[i])
				}
			}
		}
		check("mean", mean, refMean)
		check("variance", vr, refVar)
	}
}

// TestRunFoldOrderDeterminism asserts the mechanical invariants
// behind the determinism argument: every fold lands in the shard that
// owns its index block, and folds within a shard arrive in strictly
// increasing index order, regardless of worker or lane count.
func TestRunFoldOrderDeterminism(t *testing.T) {
	const from, to, shards = 5, 130, 6
	lay := ShardingFor(from, to, shards)
	for _, workers := range []int{1, 4, 9} {
		for _, lanes := range []int{1, 4} {
			var mu sync.Mutex
			perShard := make(map[int][]int)
			_, err := Run(from, to, Config{Workers: workers, Shards: shards, Lanes: lanes},
				func(idx int) (int, error) { return idx, nil },
				PerSample(func(worker, idx int, job int) (int, error) {
					if idx%4 == 1 {
						time.Sleep(time.Duration(idx%7) * 30 * time.Microsecond)
					}
					return job * 2, nil
				}),
				func(shard int) int { return shard },
				func(shard int, acc int, idx int, job, out int) error {
					mu.Lock()
					perShard[shard] = append(perShard[shard], idx)
					mu.Unlock()
					return nil
				},
				func(shard int, acc int) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(perShard) != lay.N {
				t.Fatalf("workers=%d: folds touched %d shards, want %d", workers, len(perShard), lay.N)
			}
			for s := 0; s < lay.N; s++ {
				lo, hi := lay.Bounds(s)
				idxs := perShard[s]
				if len(idxs) != hi-lo {
					t.Fatalf("workers=%d shard %d: %d folds, want %d", workers, s, len(idxs), hi-lo)
				}
				for i, idx := range idxs {
					if idx != lo+i {
						t.Fatalf("workers=%d shard %d: fold %d has index %d, want %d (in-order contract)", workers, s, i, idx, lo+i)
					}
					if lay.Shard(idx) != s {
						t.Fatalf("index %d folded into shard %d, owned by %d", idx, s, lay.Shard(idx))
					}
				}
			}
		}
	}
}

// TestShardingForLayout pins the block layout: full coverage, no empty
// shards, Shard/Bounds consistency, and the clamping rules.
func TestShardingForLayout(t *testing.T) {
	cases := []struct{ from, to, req int }{
		{0, 1, 8}, {0, 7, 8}, {0, 8, 8}, {0, 9, 8}, {3, 120, 0},
		{5, 6, 1}, {0, 100, 16}, {10, 11, 0}, {0, 64, 7},
	}
	for _, c := range cases {
		lay := ShardingFor(c.from, c.to, c.req)
		n := c.to - c.from
		if lay.N <= 0 || lay.N > n {
			t.Fatalf("%+v: N=%d out of range", c, lay.N)
		}
		covered := 0
		for s := 0; s < lay.N; s++ {
			lo, hi := lay.Bounds(s)
			if hi <= lo {
				t.Fatalf("%+v: shard %d empty [%d, %d)", c, s, lo, hi)
			}
			covered += hi - lo
			for idx := lo; idx < hi; idx++ {
				if lay.Shard(idx) != s {
					t.Fatalf("%+v: Shard(%d)=%d, Bounds says %d", c, idx, lay.Shard(idx), s)
				}
			}
		}
		if covered != n {
			t.Fatalf("%+v: shards cover %d indices, want %d", c, covered, n)
		}
	}
	if lay := ShardingFor(4, 4, 8); lay.N != 0 {
		t.Fatalf("empty range: N=%d, want 0", lay.N)
	}
}

// intRun is a no-op-fold campaign over int jobs for the contract tests.
func intRun(from, to int, cfg Config, acquire AcquireFunc[int, int],
	fold func(shard, acc, idx, job, out int) error, merge func(shard, acc int) error) (int, error) {
	return Run(from, to, cfg,
		func(idx int) (int, error) { return idx, nil },
		PerSample(acquire),
		func(shard int) int { return 0 }, fold, merge)
}

func echo(worker, idx, job int) (int, error) { return job, nil }

func noFold(shard, acc, idx, job, out int) error { return nil }

func noMerge(shard, acc int) error { return nil }

// TestRunErrorSkipsMerge pins the failure contract: an acquire
// or fold error aborts the run, surfaces out, and the merge phase never
// runs on a partial reduction.
func TestRunErrorSkipsMerge(t *testing.T) {
	boom := errors.New("boom")
	merged := false
	_, err := intRun(0, 50, Config{Workers: 4, Shards: 4},
		func(worker, idx, job int) (int, error) {
			if idx == 23 {
				return 0, boom
			}
			return job, nil
		},
		noFold,
		func(shard, acc int) error { merged = true; return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if merged {
		t.Fatal("merge ran despite an aborted campaign")
	}
	// A fold error surfaces the same way.
	_, err = intRun(0, 50, Config{Workers: 4, Shards: 4}, echo,
		func(shard, acc, idx, job, out int) error {
			if idx == 31 {
				return boom
			}
			return nil
		},
		noMerge)
	if !errors.Is(err, boom) {
		t.Fatalf("fold err = %v, want boom", err)
	}
	// An inverted range is rejected outright.
	if _, err := intRun(10, 5, Config{}, echo, noFold, noMerge); err == nil {
		t.Fatal("inverted range accepted")
	}
	// An empty range is a no-op success.
	n, err := intRun(5, 5, Config{}, echo, noFold, noMerge)
	if n != 0 || err != nil {
		t.Fatalf("empty range: (%d, %v), want (0, nil)", n, err)
	}
}

// TestRunMultiShardProgressMonotone pins the Progress contract: values
// are strictly increasing and end at the campaign size.
func TestRunMultiShardProgressMonotone(t *testing.T) {
	var seen []int
	var mu sync.Mutex
	n, err := intRun(0, 64, Config{Workers: 4, Shards: 4, Progress: func(done int) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}}, echo, noFold, noMerge)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("folded %d, want 64", n)
	}
	if len(seen) == 0 || seen[len(seen)-1] != 64 {
		t.Fatalf("progress never reached the campaign size: %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("progress not monotone: %v", seen)
		}
	}
}
