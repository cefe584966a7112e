package campaign_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	. "medsec/internal/campaign"
)

// Checkpoint/resume engine tests. The statistical wiring lives in
// internal/sca; here the contract itself is pinned on synthetic
// campaigns:
//
//   - resume at the checkpointed cursors reproduces the uninterrupted
//     fold exactly, including the shared-RNG prepare replay;
//   - the periodic hook fires at every CheckpointEvery crossing with the
//     accumulator state equal to the cursor prefixes;
//   - context cancellation surfaces as ErrInterrupted after a final
//     hook call, and resuming from that hook's cursors completes the
//     campaign identically.

// seqRNG is a deterministic stateful stream shared by prepare calls —
// the stand-in for the random-key schedule a TVLA campaign draws
// during preparation. Resume correctness depends on prepare replay
// advancing it exactly as the uninterrupted run does.
type seqRNG struct{ state uint64 }

func (r *seqRNG) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

// serialFold is the reference: the full campaign folded in one
// process, no checkpoints.
func serialFold(n int) []uint64 {
	rng := &seqRNG{state: 1}
	out := make([]uint64, 0, n)
	for idx := 0; idx < n; idx++ {
		job := rng.next() ^ uint64(idx)
		out = append(out, job*3)
	}
	return out
}

// shardAcc is a per-shard slice of folded values, so the tests can
// verify exact per-shard prefixes.
type shardAcc struct {
	vals []uint64
}

func runShardedCampaign(t *testing.T, n, workers, shards int, resume []int, every int,
	ckpt func([]int) error, ctx context.Context) ([][]uint64, int, error) {
	t.Helper()
	rng := &seqRNG{state: 1}
	lay := ShardingFor(0, n, shards)
	accs := make([]*shardAcc, lay.N)
	folded, err := Run(0, n,
		Config{Workers: workers, Shards: shards, Lanes: 2, Ctx: ctx, Resume: resume, Checkpoint: ckpt, CheckpointEvery: every},
		func(idx int) (uint64, error) { return rng.next() ^ uint64(idx), nil },
		PerSample(func(worker, idx int, job uint64) (uint64, error) { return job * 3, nil }),
		func(shard int) *shardAcc {
			accs[shard] = &shardAcc{}
			return accs[shard]
		},
		func(shard int, acc *shardAcc, idx int, job, out uint64) error {
			acc.vals = append(acc.vals, out)
			return nil
		},
		func(shard int, acc *shardAcc) error { return nil })
	out := make([][]uint64, len(accs))
	for s, a := range accs {
		if a != nil {
			out[s] = a.vals
		}
	}
	return out, folded, err
}

// runCampaign is the S = 1 campaign: one cursor, the serial fold.
func runCampaign(t *testing.T, n, workers, resumeFrom int, every int, ckpt func([]int) error, ctx context.Context) ([]uint64, int, error) {
	t.Helper()
	folded, consumed, err := runShardedCampaign(t, n, workers, 1, []int{resumeFrom}, every, ckpt, ctx)
	return folded[0], consumed, err
}

func TestRunResumeMatchesUninterrupted(t *testing.T) {
	const n = 40
	want := serialFold(n)
	for _, workers := range []int{1, 7} {
		for _, watermark := range []int{0, 1, 13, 39, 40} {
			folded, consumed, err := runCampaign(t, n, workers, watermark, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if consumed != n-watermark {
				t.Fatalf("w=%d resume=%d: folded %d, want %d", workers, watermark, consumed, n-watermark)
			}
			for i, v := range folded {
				if v != want[watermark+i] {
					t.Fatalf("w=%d resume=%d: fold %d is %d, want %d (prepare replay broken?)",
						workers, watermark, i, v, want[watermark+i])
				}
			}
		}
	}
}

func TestRunCheckpointCadence(t *testing.T) {
	const n, every = 23, 5
	var marks []int
	// One worker folds one batch at a time, so the hook sees every
	// multiple exactly.
	_, _, err := runCampaign(t, n, 1, 0, every, func(c []int) error {
		marks = append(marks, c[0])
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{6, 10, 16, 20}
	if len(marks) != len(want) {
		t.Fatalf("checkpoint cursors %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("checkpoint cursors %v, want %v", marks, want)
		}
	}

	// A hook error aborts the run.
	boom := errors.New("disk full")
	_, consumed, err := runCampaign(t, n, 1, 0, every, func(c []int) error {
		if c[0] >= 10 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if consumed != 10 {
		t.Fatalf("folded %d after hook abort at cursor 10", consumed)
	}
}

func TestRunInterruptWritesFinalCheckpointAndResumes(t *testing.T) {
	const n = 60
	want := serialFold(n)

	ctx, cancel := context.WithCancel(context.Background())
	var lastMark int
	var firstHalf []uint64
	rng := &seqRNG{state: 1}
	_, err := Run(0, n,
		Config{Workers: 7, Shards: 1, Lanes: 3, Ctx: ctx, Checkpoint: func(c []int) error { lastMark = c[0]; return nil }},
		func(idx int) (uint64, error) { return rng.next() ^ uint64(idx), nil },
		PerSample(func(worker, idx int, job uint64) (uint64, error) { return job * 3, nil }),
		func(int) struct{} { return struct{}{} },
		func(_ int, _ struct{}, idx int, job, out uint64) error {
			firstHalf = append(firstHalf, out)
			if idx == 24 {
				cancel() // "SIGINT" mid-campaign
			}
			return nil
		},
		func(int, struct{}) error { return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if lastMark != len(firstHalf) {
		t.Fatalf("final checkpoint cursor %d, folded %d", lastMark, len(firstHalf))
	}
	if lastMark < 25 {
		t.Fatalf("cursor %d below the cancellation point", lastMark)
	}

	// Second process: resume from the cursor.
	secondHalf, consumed, err := runCampaign(t, n, 3, lastMark, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != n-lastMark {
		t.Fatalf("resumed folded %d, want %d", consumed, n-lastMark)
	}
	got := append(append([]uint64(nil), firstHalf...), secondHalf...)
	if len(got) != n {
		t.Fatalf("stitched campaign has %d folds, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stitched fold %d is %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRunMultiShardResumeMatchesUninterrupted(t *testing.T) {
	const n, shards = 40, 4
	want := serialFold(n)
	lay := ShardingFor(0, n, shards)
	for _, workers := range []int{1, 7} {
		for _, frac := range []int{0, 3, 9, 10} {
			// Resume each shard frac indices into its block (clamped).
			resume := make([]int, lay.N)
			for s := range resume {
				lo, hi := lay.Bounds(s)
				resume[s] = lo + frac
				if resume[s] > hi {
					resume[s] = hi
				}
			}
			got, _, err := runShardedCampaign(t, n, workers, shards, resume, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for s := range got {
				_, hi := lay.Bounds(s)
				if len(got[s]) != hi-resume[s] {
					t.Fatalf("w=%d frac=%d shard %d folded %d, want %d", workers, frac, s, len(got[s]), hi-resume[s])
				}
				for i, v := range got[s] {
					if v != want[resume[s]+i] {
						t.Fatalf("w=%d frac=%d shard %d fold %d is %d, want %d",
							workers, frac, s, i, v, want[resume[s]+i])
					}
				}
			}
		}
	}
}

func TestRunCheckpointSnapshotConsistency(t *testing.T) {
	const n, shards, every = 64, 4, 16
	lay := ShardingFor(0, n, shards)
	var mu sync.Mutex
	var snaps [][]int
	_, folded, err := runShardedCampaign(t, n, 7, shards, nil, every, func(cursors []int) error {
		mu.Lock()
		snaps = append(snaps, append([]int(nil), cursors...))
		mu.Unlock()
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if folded != n {
		t.Fatalf("folded %d, want %d", folded, n)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoint snapshots taken")
	}
	prevTotal := 0
	for _, cursors := range snaps {
		total := 0
		for s, c := range cursors {
			lo, hi := lay.Bounds(s)
			if c < lo || c > hi {
				t.Fatalf("snapshot cursor %d outside shard %d block [%d,%d]", c, s, lo, hi)
			}
			total += c - lo
		}
		if total < prevTotal {
			t.Fatalf("snapshot totals not monotone: %d after %d", total, prevTotal)
		}
		if total < every {
			t.Fatalf("snapshot taken before the first interval: total %d", total)
		}
		prevTotal = total
	}

	// Hook errors abort the run.
	boom := errors.New("disk full")
	_, _, err = runShardedCampaign(t, n, 7, shards, nil, every, func([]int) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("sharded hook error not surfaced: %v", err)
	}
}

func TestRunMultiShardInterruptWritesFinalCheckpointAndResumes(t *testing.T) {
	const n, shards = 80, 4
	want := serialFold(n)
	lay := ShardingFor(0, n, shards)

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var finalCursors []int
	firstHalves := make([][]uint64, lay.N)
	rng := &seqRNG{state: 1}
	seen := 0
	_, err := Run(0, n,
		Config{Workers: 7, Shards: shards, Ctx: ctx, Checkpoint: func(cursors []int) error {
			mu.Lock()
			finalCursors = append([]int(nil), cursors...)
			mu.Unlock()
			return nil
		}},
		func(idx int) (uint64, error) { return rng.next() ^ uint64(idx), nil },
		PerSample(func(worker, idx int, job uint64) (uint64, error) { return job * 3, nil }),
		func(shard int) *shardAcc { return &shardAcc{} },
		func(shard int, acc *shardAcc, idx int, job, out uint64) error {
			// Mirror folds into test-visible per-shard slices.
			mu.Lock()
			firstHalves[shard] = append(firstHalves[shard], out)
			if seen++; seen == n/3 {
				cancel()
			}
			mu.Unlock()
			return nil
		},
		func(shard int, acc *shardAcc) error { return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sharded run returned %v, want ErrInterrupted", err)
	}
	if finalCursors == nil {
		t.Fatal("no final checkpoint after interrupt")
	}
	// The final snapshot must reflect exactly the folds that happened.
	for s, c := range finalCursors {
		lo, _ := lay.Bounds(s)
		if c-lo != len(firstHalves[s]) {
			t.Fatalf("shard %d cursor %d but %d folds recorded", s, c, len(firstHalves[s]))
		}
	}

	// Resume and stitch.
	secondHalves, _, err := runShardedCampaign(t, n, 3, shards, finalCursors, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range firstHalves {
		lo, hi := lay.Bounds(s)
		full := append(append([]uint64(nil), firstHalves[s]...), secondHalves[s]...)
		if len(full) != hi-lo {
			t.Fatalf("shard %d stitched to %d folds, want %d", s, len(full), hi-lo)
		}
		for i, v := range full {
			if v != want[lo+i] {
				t.Fatalf("shard %d stitched fold %d is %d, want %d", s, i, v, want[lo+i])
			}
		}
	}
}

func TestRunResumeValidation(t *testing.T) {
	if _, _, err := runShardedCampaign(t, 40, 2, 4, []int{0, 0}, 0, nil, nil); err == nil {
		t.Fatal("wrong cursor count accepted")
	}
	if _, _, err := runShardedCampaign(t, 40, 2, 4, []int{99, 10, 20, 30}, 0, nil, nil); err == nil {
		t.Fatal("out-of-block cursor accepted")
	}
}

// TestRunResumeDeterminismAcrossWorkers folds a resumed campaign at
// several worker counts and requires identical results — the resume
// path must not weaken the engine's core contract.
func TestRunResumeDeterminismAcrossWorkers(t *testing.T) {
	const n, watermark = 50, 17
	var ref []uint64
	for i, workers := range []int{1, 3, 7, 16} {
		folded, _, err := runCampaign(t, n, workers, watermark, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = folded
			continue
		}
		if len(folded) != len(ref) {
			t.Fatalf("workers=%d folded %d, ref %d", workers, len(folded), len(ref))
		}
		for j := range folded {
			if folded[j] != ref[j] {
				t.Fatalf("workers=%d fold %d differs", workers, j)
			}
		}
	}
}
