package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

type batchItem[J any] struct {
	start int
	jobs  []J
}

type outcome[J, R any] struct {
	job J
	out R
}

// shardState is one reduction shard: an accumulator plus the reorder
// machinery that serializes folds within the shard's index block.
type shardState[J, R, A any] struct {
	mu      sync.Mutex
	acc     A
	pending map[int]outcome[J, R]
	cursor  int
}

// batchBufs recycles the job/result slices that flow from dispatcher
// to workers, so a long campaign allocates per-batch buffers only
// during warmup.
type batchBufs[J, R any] struct {
	jobs sync.Pool
	outs sync.Pool
}

func (b *batchBufs[J, R]) get(lanes int) ([]J, []R) {
	var js []J
	if v := b.jobs.Get(); v != nil {
		js = (*v.(*[]J))[:0]
	}
	if cap(js) < lanes {
		js = make([]J, 0, lanes)
	}
	var os []R
	if v := b.outs.Get(); v != nil {
		os = (*v.(*[]R))[:0]
	}
	if cap(os) < lanes {
		os = make([]R, 0, lanes)
	}
	return js, os
}

func (b *batchBufs[J, R]) put(js []J, os []R) {
	if cap(js) > 0 {
		js = js[:0]
		b.jobs.Put(&js)
	}
	if cap(os) > 0 {
		os = os[:0]
		b.outs.Put(&os)
	}
}

// batchFillBuckets builds histogram buckets resolving each possible
// batch fill up to the lane count.
func batchFillBuckets(lanes int) []float64 {
	bs := make([]float64, 0, 8)
	for b := 1; b <= lanes; b *= 2 {
		bs = append(bs, float64(b))
	}
	if bs[len(bs)-1] != float64(lanes) {
		bs = append(bs, float64(lanes))
	}
	return bs
}

// Run acquires results for the bounded range [from, to) and reduces
// them through per-shard accumulators (see the package documentation
// for the determinism and error contracts).
//
//   - prepare builds each sample's job, serially in index order;
//   - acquire retires a batch of at most cfg.Lanes consecutive jobs of
//     one shard (PerSample adapts a per-sample acquirer);
//   - newShard(s) builds shard s's accumulator; it is called eagerly
//     on the caller's goroutine, in shard order, before acquisition
//     starts;
//   - fold(s, acc, idx, job, out) folds one result into shard s's
//     accumulator. It is called on worker goroutines, but never
//     concurrently for the same shard, and always in increasing idx
//     order within a shard;
//   - merge(s, acc) is called serially on the caller's goroutine in
//     shard order once every sample has been folded.
//
// It returns the number of samples newly folded. On error the merge
// phase is skipped.
func Run[J, R, A any](from, to int, cfg Config,
	prepare PrepareFunc[J], acquire AcquireBatchFunc[J, R],
	newShard func(shard int) A,
	fold func(shard int, acc A, idx int, job J, out R) error,
	merge func(shard int, acc A) error) (int, error) {

	runStart := time.Now()
	var mergeTime time.Duration
	defer func() {
		cfg.Metrics.Gauge("campaign_run_ns").Set(float64(time.Since(runStart).Nanoseconds()))
		cfg.Metrics.Gauge("campaign_merge_ns").Set(float64(mergeTime.Nanoseconds()))
	}()

	if to < from {
		return 0, fmt.Errorf("campaign: range [%d, %d) is inverted", from, to)
	}
	if cfg.Shards < 0 {
		return 0, fmt.Errorf("campaign: Config.Shards = %d is negative (0 selects DefaultShards)", cfg.Shards)
	}
	lanes := Lanes(cfg.Lanes)
	lay := ShardingFor(from, to, cfg.Shards)
	if lay.N == 0 {
		return 0, nil
	}

	// Resume cursors: default to each shard's block start (nothing
	// folded yet); a checkpoint overrides them.
	resumeAt := make([]int, lay.N)
	resumed := 0
	for s := range resumeAt {
		resumeAt[s], _ = lay.Bounds(s)
	}
	if cfg.Resume != nil {
		if len(cfg.Resume) != lay.N {
			return 0, fmt.Errorf("campaign: resume has %d cursors, layout has %d shards", len(cfg.Resume), lay.N)
		}
		for s, c := range cfg.Resume {
			lo, hi := lay.Bounds(s)
			if c < lo || c > hi {
				return 0, fmt.Errorf("campaign: resume cursor %d for shard %d outside its block [%d,%d)", c, s, lo, hi)
			}
			resumeAt[s] = c
			resumed += c - lo
		}
	}

	workers := Workers(cfg.Workers)
	if remaining := to - from - resumed; remaining > 0 {
		if batches := (remaining + lanes - 1) / lanes; workers > batches {
			workers = batches
		}
	}

	var (
		mPrepared  = cfg.Metrics.Counter("campaign_prepared")
		mAcquired  = cfg.Metrics.Counter("campaign_acquired")
		mFolded    = cfg.Metrics.Counter("campaign_folded")
		mFoldBatch = cfg.Metrics.Histogram("campaign_fold_batch", []float64{1, 2, 4, 8, 16, 32, 64, 128})
		mBatchFill = cfg.Metrics.Histogram("campaign_batch_fill", batchFillBuckets(lanes))
		mUnderfill = cfg.Metrics.Counter("campaign_batch_underfill")
	)
	cfg.Metrics.Gauge("campaign_workers").Set(float64(workers))
	cfg.Metrics.Gauge("campaign_shards").Set(float64(lay.N))
	cfg.Metrics.Gauge("campaign_lanes").Set(float64(lanes))

	// Build the shard bank deterministically before any acquisition.
	states := make([]shardState[J, R, A], lay.N)
	for s := range states {
		states[s].acc = newShard(s)
		states[s].pending = make(map[int]outcome[J, R], 2*workers*lanes)
		states[s].cursor = resumeAt[s]
	}

	var bufs batchBufs[J, R]
	jobs := make(chan batchItem[J], workers)
	quit := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(quit) }) }
	// halted polls for a stop without waiting on the watcher goroutine
	// below, so a cancellation stops new work at once.
	halted := func() bool {
		select {
		case <-quit:
			return true
		default:
			return cfg.Ctx != nil && cfg.Ctx.Err() != nil
		}
	}

	// Cancellation watcher: translate a context cancellation into the
	// engine's own stop signal. quit doubles as the watcher's exit.
	if cfg.Ctx != nil {
		go func() {
			select {
			case <-cfg.Ctx.Done():
				stop()
			case <-quit:
			}
		}()
	}

	// snapshot hands the Checkpoint hook a consistent view: every
	// shard lock is taken (in shard order) and HELD across the hook, so
	// the per-shard accumulators are exactly the cursor prefixes for
	// the whole call. ckptMu serializes snapshots; it is never taken
	// while holding doneMu or any shard lock, and workers never hold a
	// shard lock while taking doneMu, so the lock order
	// (ckptMu → st.mu…) cannot invert against the fold path.
	var ckptMu sync.Mutex
	snapshot := func() error {
		ckptMu.Lock()
		defer ckptMu.Unlock()
		for s := range states {
			states[s].mu.Lock()
		}
		cursors := make([]int, len(states))
		for s := range states {
			cursors[s] = states[s].cursor
		}
		err := cfg.Checkpoint(cursors)
		for s := len(states) - 1; s >= 0; s-- {
			states[s].mu.Unlock()
		}
		return err
	}

	// Deterministic failure: limit is the lowest failing index seen so
	// far (to while none has failed). Nothing at or above it is
	// dispatched, acquired or folded any more, but everything below it
	// still is — so a lower failure, if one exists, is always found and
	// the returned error does not depend on scheduling.
	var (
		errMu    sync.Mutex
		bestErr  error
		limit    atomic.Int64
		failOnce sync.Once
		failedCh = make(chan struct{})
	)
	limit.Store(int64(to))
	fail := func(idx int, err error) {
		errMu.Lock()
		if int64(idx) < limit.Load() {
			bestErr = err
			limit.Store(int64(idx))
		}
		errMu.Unlock()
		failOnce.Do(func() { close(failedCh) })
	}
	below := func(idx int) bool { return int64(idx) < limit.Load() }

	// Flow control: at most 4·workers·lanes samples are dispatched but
	// not yet folded, so a stalled worker cannot grow the shard reorder
	// buffers without bound — memory stays O(workers·lanes·sample). The
	// dispatcher takes one credit per sample; folds and discarded
	// batches return them.
	credits := make(chan struct{}, 4*workers*lanes)
	release := func(n int) {
		for i := 0; i < n; i++ {
			<-credits
		}
	}

	// Monotone fold counter shared by Progress and the return value
	// (new folds only; resumed folds were counted by the previous
	// process). lastCkpt tracks the total (resumed + new) at the last
	// periodic checkpoint so exactly one worker snapshots each crossed
	// CheckpointEvery multiple.
	var (
		doneMu       sync.Mutex
		done         int
		lastProgress int
		lastCkpt     = resumed
	)

	// Dispatcher: serial prepare in index order; batches accumulate per
	// consecutive run and flush at the lane limit or a shard boundary,
	// starting at each shard's resume cursor.
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		defer close(jobs)
		batch, _ := bufs.get(lanes)
		bStart := 0
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			mBatchFill.Observe(float64(len(batch)))
			if len(batch) < lanes {
				mUnderfill.Inc()
			}
			select {
			case jobs <- batchItem[J]{start: bStart, jobs: batch}:
				batch, _ = bufs.get(lanes)
				return true
			case <-quit:
				return false
			}
		}
		for idx := from; idx < to; idx++ {
			if halted() {
				return
			}
			if !below(idx) {
				// A dispatched index failed; the unsent batch holds only
				// indices above it.
				return
			}
			j, err := prepare(idx)
			if err != nil {
				fail(idx, err)
				flush() // the unsent batch holds only indices below idx
				return
			}
			mPrepared.Inc()
			if idx < resumeAt[lay.Shard(idx)] {
				continue // resumed prefix: streams advance, no acquisition
			}
			select {
			case credits <- struct{}{}:
			case <-quit:
				return
			case <-failedCh:
				return // every failure lies below idx
			}
			if len(batch) > 0 && (idx != bStart+len(batch) || lay.Shard(idx) != lay.Shard(bStart)) {
				// The consecutive run broke (resumed gap or shard
				// boundary): flush what we have.
				if !flush() {
					return
				}
			}
			if len(batch) == 0 {
				bStart = idx
			}
			batch = append(batch, j)
			if len(batch) == lanes && !flush() {
				return
			}
		}
		flush()
	}()

	// Workers: acquire a batch, then fold directly into the owning shard
	// under its lock, draining the shard's reorder map in index order.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				var it batchItem[J]
				var ok bool
				select {
				case it, ok = <-jobs:
					if !ok {
						return
					}
				case <-quit:
					return
				}
				if halted() {
					return
				}
				if !below(it.start) {
					release(len(it.jobs))
					bufs.put(it.jobs, nil)
					continue
				}
				_, out := bufs.get(lanes)
				out = out[:len(it.jobs)]
				err := acquire(w, it.start, it.jobs, out)
				mAcquired.Add(int64(len(it.jobs)))
				if err != nil {
					fail(it.start, err)
					release(len(it.jobs))
					bufs.put(it.jobs, out)
					continue
				}
				s := lay.Shard(it.start)
				st := &states[s]
				folded := 0
				st.mu.Lock()
				for i := range it.jobs {
					st.pending[it.start+i] = outcome[J, R]{job: it.jobs[i], out: out[i]}
				}
				for below(st.cursor) {
					r, ready := st.pending[st.cursor]
					if !ready {
						break
					}
					delete(st.pending, st.cursor)
					if err := fold(s, st.acc, st.cursor, r.job, r.out); err != nil {
						fail(st.cursor, err)
						break
					}
					st.cursor++
					folded++
				}
				st.mu.Unlock()
				release(folded)
				bufs.put(it.jobs, out)
				if folded == 0 {
					continue
				}
				mFolded.Add(int64(folded))
				mFoldBatch.Observe(float64(folded))
				ckptDue := false
				doneMu.Lock()
				done += folded
				total := resumed + done
				if cfg.Progress != nil {
					// Called under the counter lock so observed values
					// are monotone.
					cfg.Progress(total)
					lastProgress = total
				}
				// No periodic snapshot once anything failed: a failing
				// fold may have touched its accumulator without
				// advancing the cursor.
				if cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 && limit.Load() == int64(to) &&
					total/cfg.CheckpointEvery > lastCkpt/cfg.CheckpointEvery {
					lastCkpt = total
					ckptDue = true
				}
				doneMu.Unlock()
				// Snapshot outside doneMu: the shard locks the snapshot
				// takes must never nest inside it.
				if ckptDue {
					if err := snapshot(); err != nil {
						// A hook error outranks every index error (it
						// claims the lowest index) and stops at once.
						fail(from, err)
						stop()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop() // release a dispatcher parked on a send
	<-dispatched

	folded, reported := done, lastProgress
	if bestErr != nil {
		return folded, bestErr
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		// Interrupted: write the final checkpoint at the exact per-shard
		// cursors (the pool is drained, so the snapshot is the last word)
		// and skip the merge — resumption rebuilds it.
		if cfg.Checkpoint != nil {
			if err := snapshot(); err != nil {
				return folded, err
			}
		}
		return folded, ErrInterrupted
	}

	// Progress contract: a successful run always ends with
	// Progress(to-from).
	if cfg.Progress != nil && reported != resumed+folded {
		cfg.Progress(resumed + folded)
	}

	// Final reduction: merge the shard bank in shard order on this
	// goroutine — the only place results from different shards meet.
	mergeStart := time.Now()
	defer func() { mergeTime = time.Since(mergeStart) }()
	for s := range states {
		if err := merge(s, states[s].acc); err != nil {
			return folded, err
		}
	}
	return folded, nil
}
