// External test package: trace imports campaign (for the pooled
// per-trace buffers), so an in-package test could not use trace.Trace
// as a result type without an import cycle. The dot-import keeps the
// test bodies short.
package campaign_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "medsec/internal/campaign"
	"medsec/internal/trace"
)

// serialRef is the reference every engine shape is checked against:
// the historical serial loop — prepare, acquire and fold each index in
// order on the caller's goroutine.
func serialRef[J, R any](from, to int, prepare PrepareFunc[J], acquire AcquireFunc[J, R], fold func(idx int, job J, out R) error) error {
	for idx := from; idx < to; idx++ {
		job, err := prepare(idx)
		if err != nil {
			return err
		}
		out, err := acquire(0, idx, job)
		if err != nil {
			return err
		}
		if err := fold(idx, job, out); err != nil {
			return err
		}
	}
	return nil
}

// runFold runs the engine as the serial fold (S = 1): fold sees every
// sample in global index order.
func runFold[J, R any](from, to int, cfg Config, prepare PrepareFunc[J], acquire AcquireFunc[J, R], fold func(idx int, job J, out R) error) (int, error) {
	cfg.Shards = 1
	return Run(from, to, cfg, prepare, PerSample(acquire),
		func(int) struct{} { return struct{}{} },
		func(_ int, _ struct{}, idx int, job J, out R) error { return fold(idx, job, out) },
		func(int, struct{}) error { return nil })
}

// errStop is the tests' early-stop fold sentinel.
var errStop = errors.New("stop")

// fakeAcquire derives a small trace purely from the index — the
// determinism contract — with an optional scheduling shake so the
// reorder buffers actually reorder under -race.
func fakeAcquire(shake bool) AcquireFunc[uint64, trace.Trace] {
	return func(worker, idx int, job uint64) (trace.Trace, error) {
		if shake && idx%3 == 0 {
			time.Sleep(time.Duration(idx%5) * 100 * time.Microsecond)
		}
		v := float64(idx)*1.5 + float64(job)
		return trace.Trace{Samples: []float64{v, v * v}}, nil
	}
}

// streamPrepare is a shared stateful "RNG" advanced by prepare.
func streamPrepare() PrepareFunc[uint64] {
	stream := uint64(7)
	return func(idx int) (uint64, error) {
		stream = stream*6364136223846793005 + 1442695040888963407
		return stream % 97, nil
	}
}

// record appends the (idx, job, sample0) triple of each fold.
func record(seq *[][3]float64) func(idx int, job uint64, tr trace.Trace) error {
	return func(idx int, job uint64, tr trace.Trace) error {
		*seq = append(*seq, [3]float64{float64(idx), float64(job), tr.Samples[0]})
		return nil
	}
}

// serialSeq is the reference fold sequence over [from, to).
func serialSeq(t *testing.T, from, to int) [][3]float64 {
	t.Helper()
	var seq [][3]float64
	if err := serialRef(from, to, streamPrepare(), fakeAcquire(false), record(&seq)); err != nil {
		t.Fatal(err)
	}
	return seq
}

// runAll collects the folded (idx, job, sample0) sequence of the S = 1
// engine.
func runAll(t *testing.T, workers, lanes, from, to int, shake bool) [][3]float64 {
	t.Helper()
	var seq [][3]float64
	n, err := runFold(from, to, Config{Workers: workers, Lanes: lanes}, streamPrepare(), fakeAcquire(shake), record(&seq))
	if err != nil {
		t.Fatal(err)
	}
	if n != to-from {
		t.Fatalf("folded %d, want %d", n, to-from)
	}
	return seq
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	want := serialSeq(t, 0, 64)
	for _, w := range []int{1, 2, 3, 7, 16} {
		if got := runAll(t, w, 1, 0, 64, w > 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: folded sequence diverged from the serial reference", w)
		}
	}
}

func TestRunRangeOffset(t *testing.T) {
	seq := runAll(t, 4, 1, 10, 25, true)
	if len(seq) != 15 {
		t.Fatalf("len = %d", len(seq))
	}
	for i, s := range seq {
		if int(s[0]) != 10+i {
			t.Fatalf("index order violated at %d: got idx %v", i, s[0])
		}
	}
}

// TestRunEarlyStopDeterministic pins early stop as a fold sentinel: the
// S = 1 fold ends exactly at the stopping index for any worker or lane
// count, and the sentinel is what the run returns.
func TestRunEarlyStopDeterministic(t *testing.T) {
	const stopAt = 23
	for _, w := range []int{1, 2, 7, 16} {
		for _, lanes := range []int{1, 4} {
			var order []int
			n, err := runFold(0, 1000, Config{Workers: w, Lanes: lanes},
				func(idx int) (uint64, error) { return uint64(idx), nil },
				fakeAcquire(true),
				func(idx int, job uint64, tr trace.Trace) error {
					order = append(order, idx)
					if idx == stopAt {
						return errStop
					}
					return nil
				})
			if !errors.Is(err, errStop) {
				t.Fatalf("workers=%d lanes=%d: err = %v, want the stop sentinel", w, lanes, err)
			}
			// The stopping fold is not counted: the engine only knows it
			// failed.
			if n != stopAt || len(order) != stopAt+1 || order[stopAt] != stopAt {
				t.Fatalf("workers=%d lanes=%d: folded %d (seen %d), want stop at %d", w, lanes, n, len(order), stopAt)
			}
		}
	}
}

// errorMatrix is the engine-shape grid the error contract is pinned on.
func errorMatrix(t *testing.T, check func(t *testing.T, cfg Config)) {
	for _, w := range []int{1, 2, 7} {
		for _, shards := range []int{1, 4} {
			for _, lanes := range []int{1, 3} {
				cfg := Config{Workers: w, Shards: shards, Lanes: lanes}
				t.Run(fmt.Sprintf("workers=%d/shards=%d/lanes=%d", w, shards, lanes), func(t *testing.T) { check(t, cfg) })
			}
		}
	}
}

// errorRun runs [0, n) through the engine recording every folded index
// and whether the merge ran.
func errorRun(cfg Config, n int, prepare PrepareFunc[int], acquire AcquireFunc[int, int]) (map[int]bool, bool, error) {
	var mu sync.Mutex
	folded := map[int]bool{}
	merged := false
	_, err := Run(0, n, cfg, prepare, PerSample(acquire),
		func(int) int { return 0 },
		func(_, _, idx, _, _ int) error {
			mu.Lock()
			folded[idx] = true
			mu.Unlock()
			return nil
		},
		func(int, int) error { merged = true; return nil })
	return folded, merged, err
}

// batchStart returns the first index of the acquisition batch holding
// idx: batches start at each shard's block start and advance by lanes.
func batchStart(cfg Config, n, idx int) int {
	lay := ShardingFor(0, n, cfg.Shards)
	lo, _ := lay.Bounds(lay.Shard(idx))
	return lo + (idx-lo)/cfg.Lanes*cfg.Lanes
}

// TestRunAcquireErrorSurfacesInOrder pins the deterministic error
// contract: with two failing samples, the lower one's error is returned
// at every engine shape, every index below its batch was still folded,
// and the merge never runs.
func TestRunAcquireErrorSurfacesInOrder(t *testing.T) {
	errLow, errHigh := errors.New("boom17"), errors.New("boom40")
	errorMatrix(t, func(t *testing.T, cfg Config) {
		folded, merged, err := errorRun(cfg, 50,
			func(idx int) (int, error) { return idx, nil },
			func(worker, idx int, job int) (int, error) {
				switch idx {
				case 17:
					time.Sleep(2 * time.Millisecond) // let the higher failure land first
					return 0, errLow
				case 40:
					return 0, errHigh
				}
				return job, nil
			})
		if !errors.Is(err, errLow) {
			t.Fatalf("err = %v, want the lowest-index error", err)
		}
		if merged {
			t.Fatal("merge ran despite a failed campaign")
		}
		for idx := 0; idx < batchStart(cfg, 50, 17); idx++ {
			if !folded[idx] {
				t.Fatalf("index %d below the failure was never folded", idx)
			}
		}
	})
}

// TestRunPrepareErrorSurfacesInOrder: a prepare failure stops dispatch,
// but every index before it is still acquired and folded — and a lower
// acquire failure outranks it.
func TestRunPrepareErrorSurfacesInOrder(t *testing.T) {
	prepErr, acqErr := errors.New("prep"), errors.New("acquire")
	errorMatrix(t, func(t *testing.T, cfg Config) {
		prepare := func(idx int) (int, error) {
			if idx == 9 {
				return 0, prepErr
			}
			return idx, nil
		}
		folded, _, err := errorRun(cfg, 50, prepare, func(worker, idx int, job int) (int, error) { return job, nil })
		if !errors.Is(err, prepErr) {
			t.Fatalf("err = %v, want prep", err)
		}
		for idx := 0; idx < 9; idx++ {
			if !folded[idx] {
				t.Fatalf("index %d before the prepare failure was never folded", idx)
			}
		}
		_, _, err = errorRun(cfg, 50, prepare, func(worker, idx int, job int) (int, error) {
			if idx == 4 {
				return 0, acqErr
			}
			return job, nil
		})
		if !errors.Is(err, acqErr) {
			t.Fatalf("err = %v, want the lower acquire error", err)
		}
	})
}

func fakeAcquireInt(worker, idx int, job int) (trace.Trace, error) {
	return trace.Trace{Samples: []float64{float64(job)}}, nil
}

// TestRunConsumeErrorStops: a fold error ends the S = 1 fold at the
// failing index.
func TestRunConsumeErrorStops(t *testing.T) {
	boom := errors.New("fold")
	n, err := runFold(0, 40, Config{Workers: 5},
		func(idx int) (int, error) { return idx, nil },
		fakeAcquireInt,
		func(idx int, job int, tr trace.Trace) error {
			if idx == 12 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n != 12 {
		t.Fatalf("n = %d, want 12", n)
	}
}

func TestRunWorkerIdsAreStable(t *testing.T) {
	// Worker-owned scratch: every acquire must see a worker id within
	// the resolved pool, and two acquires on the same id must never
	// overlap (each worker is a single goroutine).
	const workers = 6
	var active [workers]int32
	_, err := runFold(0, 200, Config{Workers: workers},
		func(idx int) (int, error) { return idx, nil },
		func(worker, idx int, job int) (trace.Trace, error) {
			if worker < 0 || worker >= workers {
				return trace.Trace{}, fmt.Errorf("worker id %d out of range", worker)
			}
			if atomic.AddInt32(&active[worker], 1) != 1 {
				return trace.Trace{}, errors.New("two acquisitions on one worker id")
			}
			time.Sleep(50 * time.Microsecond)
			atomic.AddInt32(&active[worker], -1)
			return trace.Trace{Samples: []float64{0}}, nil
		},
		func(idx int, job int, tr trace.Trace) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunProgressMonotone(t *testing.T) {
	var done []int
	_, err := runFold(3, 20, Config{Workers: 4, Progress: func(d int) { done = append(done, d) }},
		func(idx int) (int, error) { return idx, nil },
		fakeAcquireInt,
		func(idx int, job int, tr trace.Trace) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(done) == 0 || done[len(done)-1] != 17 {
		t.Fatalf("progress sequence %v does not end at the sample count 17", done)
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("progress not monotone: %v", done)
		}
	}
}

func TestRunStreamingIntoOnlineStats(t *testing.T) {
	// End-to-end shape of the real pipeline: parallel acquisition
	// streaming into an order-sensitive accumulator must be bit-equal
	// to the serial fold.
	prepare := func(idx int) (uint64, error) { return uint64(idx * idx), nil }
	mean := func(o *trace.OnlineStats) []float64 {
		m, err := o.Mean()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := trace.NewOnlineStats()
	if err := serialRef(0, 128, prepare, fakeAcquire(false),
		func(idx int, job uint64, tr trace.Trace) error { return ref.Add(tr.Samples) }); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		o := trace.NewOnlineStats()
		if _, err := runFold(0, 128, Config{Workers: w, Lanes: 3}, prepare, fakeAcquire(true),
			func(idx int, job uint64, tr trace.Trace) error { return o.Add(tr.Samples) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mean(o), mean(ref)) {
			t.Fatalf("workers=%d: streaming mean not bit-identical to serial", w)
		}
	}
}

func TestRunEmptyAndDegenerateRanges(t *testing.T) {
	prepare := func(idx int) (int, error) { return 0, nil }
	fold := func(idx int, job int, tr trace.Trace) error { return nil }
	if n, err := runFold(5, 5, Config{}, prepare, fakeAcquireInt, fold); n != 0 || err != nil {
		t.Fatalf("empty range: (%d, %v)", n, err)
	}
	if _, err := runFold(9, 3, Config{}, prepare, fakeAcquireInt, fold); err == nil {
		t.Fatal("inverted range accepted")
	}
	_, err := Run(0, 10, Config{Shards: -1}, prepare, PerSample(fakeAcquireInt),
		func(int) int { return 0 },
		func(_, _, _, _ int, _ trace.Trace) error { return nil },
		func(int, int) error { return nil })
	if err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("auto resolution below 1")
	}
	if Workers(10_000) != MaxWorkers {
		t.Fatal("cap not applied")
	}
	if Lanes(0) != 1 || Lanes(-2) != 1 || Lanes(8) != 8 || Lanes(1000) != MaxLanes {
		t.Fatal("lane resolution wrong")
	}
}

func TestRunNoGoroutineLeakOnEarlyStop(t *testing.T) {
	// Stress teardown: many early-stopped runs; if workers or the
	// dispatcher leaked on stop, -race and the runtime would notice the
	// unbounded growth long before this finishes.
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := runFold(0, 1<<20, Config{Workers: 4, Lanes: 2},
				func(idx int) (int, error) { return idx, nil },
				fakeAcquireInt,
				func(idx int, job int, tr trace.Trace) error {
					if idx >= 10+i {
						return errStop
					}
					return nil
				})
			if !errors.Is(err, errStop) {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func TestRunGenericResultTypes(t *testing.T) {
	// The engine is generic in the result type: a fault sweep returns
	// classifications, a link sweep returns session outcomes. Pin that
	// a non-trace result flows through the reorder buffers unchanged
	// and in index order for several worker counts.
	type verdict struct {
		Idx  int
		Tag  string
		Bits int
	}
	run := func(workers int) []verdict {
		var out []verdict
		_, err := runFold(0, 40, Config{Workers: workers},
			func(idx int) (int, error) { return idx * 3, nil },
			func(worker, idx int, job int) (verdict, error) {
				if idx%4 == 0 {
					time.Sleep(time.Duration(idx%3) * 50 * time.Microsecond)
				}
				return verdict{Idx: idx, Tag: fmt.Sprintf("j%d", job), Bits: job * 8}, nil
			},
			func(idx int, job int, v verdict) error {
				out = append(out, v)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 7} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: generic result sequence diverged", w)
		}
	}
	for i, v := range want {
		if v.Idx != i || v.Bits != i*24 {
			t.Fatalf("result %d corrupted: %+v", i, v)
		}
	}
}
