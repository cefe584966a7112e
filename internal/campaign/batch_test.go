package campaign_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	. "medsec/internal/campaign"
	"medsec/internal/trace"
)

// TestRunLanesMatchSerial pins lane batching: the folded
// sequence of the S = 1 engine is the serial reference's for every
// lanes x workers combination, including lane counts that do not
// divide the trace count.
func TestRunLanesMatchSerial(t *testing.T) {
	want := serialSeq(t, 0, 64)
	for _, lanes := range []int{1, 2, 3, 4, 8} {
		for _, w := range []int{1, 2, 7} {
			if got := runAll(t, w, lanes, 0, 64, w > 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes=%d workers=%d: folded sequence diverged from the serial reference", lanes, w)
			}
		}
	}
}

// TestRunLanesResumeRegroups pins resume safety: resuming mid-range —
// at an offset that is not a multiple of the lane count, so every
// batch boundary shifts — folds exactly the suffix of the
// uninterrupted sequence.
func TestRunLanesResumeRegroups(t *testing.T) {
	want := serialSeq(t, 0, 64)
	for _, resume := range []int{1, 7, 33} {
		var seq [][3]float64
		n, err := runFold(0, 64, Config{Workers: 3, Lanes: 4, Resume: []int{resume}},
			streamPrepare(), fakeAcquire(true), record(&seq))
		if err != nil {
			t.Fatal(err)
		}
		if n != 64-resume || !reflect.DeepEqual(seq, want[resume:]) {
			t.Fatalf("resume=%d: suffix diverged (folded %d)", resume, n)
		}
	}
}

// TestRunLanesEarlyStop pins per-sample early stop: the fold ends
// exactly at the stop index even when the stop lands mid-batch.
func TestRunLanesEarlyStop(t *testing.T) {
	const stopAt = 23
	for _, lanes := range []int{1, 4, 8} {
		var folded []int
		n, err := runFold(0, 64, Config{Workers: 3, Lanes: lanes},
			streamPrepare(), fakeAcquire(true),
			func(idx int, job uint64, tr trace.Trace) error {
				folded = append(folded, idx)
				if idx == stopAt {
					return errStop
				}
				return nil
			})
		if !errors.Is(err, errStop) {
			t.Fatalf("lanes=%d: err = %v, want the stop sentinel", lanes, err)
		}
		if n != stopAt || len(folded) != stopAt+1 || folded[len(folded)-1] != stopAt {
			t.Fatalf("lanes=%d: stopped after %d folded (last %d), want %d", lanes, n, folded[len(folded)-1], stopAt+1)
		}
	}
}

// shardedFold runs a sum-reduction over the fake acquisition and
// returns the merged per-shard sums (shard order).
func shardedFold(t *testing.T, workers, shards, lanes, from, to int, resume []int, init []float64) []float64 {
	t.Helper()
	lay := ShardingFor(from, to, shards)
	sums := make([]float64, lay.N)
	var merged []float64
	newShard := func(s int) *float64 {
		if init != nil {
			// Restore the checkpointed accumulator state, as a real
			// resume does before folding the remaining indices.
			sums[s] = init[s]
		}
		return &sums[s]
	}
	fold := func(s int, acc *float64, idx int, job uint64, tr trace.Trace) error {
		*acc += tr.Samples[0] * float64(idx+1)
		if idx%3 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	merge := func(s int, acc *float64) error {
		merged = append(merged, *acc)
		return nil
	}
	cfg := Config{Workers: workers, Shards: shards, Lanes: lanes, Resume: resume}
	if _, err := Run(from, to, cfg, streamPrepare(), PerSample(fakeAcquire(false)), newShard, fold, merge); err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestRunBatchShapesAgree pins the sharded batch path:
// merged per-shard reductions are bit-identical for every lanes x
// workers x shards combination (same shard blocks, same in-shard fold
// order).
func TestRunBatchShapesAgree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		want := shardedFold(t, 1, shards, 1, 0, 61, nil, nil)
		for _, lanes := range []int{1, 3, 8} {
			for _, w := range []int{1, 2, 7} {
				if got := shardedFold(t, w, shards, lanes, 0, 61, nil, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d lanes=%d workers=%d: merged reduction diverged", shards, lanes, w)
				}
			}
		}
	}
}

// TestRunBatchMidShardResume pins mid-shard resume: cursors at
// arbitrary offsets inside each block (not lane-aligned) restore the
// checkpointed accumulator state, regroup the remaining indices, and
// still merge bit-identically to the uninterrupted run.
func TestRunBatchMidShardResume(t *testing.T) {
	const from, to, shards = 0, 61, 4
	want := shardedFold(t, 1, shards, 1, from, to, nil, nil)
	lay := ShardingFor(from, to, shards)
	resume := make([]int, lay.N)
	for s := range resume {
		lo, hi := lay.Bounds(s)
		resume[s] = lo + (s*3+1)%(hi-lo)
	}
	// The checkpointed accumulator state: the fold of each shard's
	// already-folded prefix, in index order — what a real checkpoint
	// blob would restore.
	prefix := make([]float64, lay.N)
	if err := serialRef(from, to, streamPrepare(), fakeAcquire(false), func(idx int, job uint64, tr trace.Trace) error {
		if s := lay.Shard(idx); idx < resume[s] {
			prefix[s] += tr.Samples[0] * float64(idx+1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := shardedFold(t, 3, shards, 4, from, to, resume, prefix); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed merge diverged: got %v want %v", got, want)
	}
}
