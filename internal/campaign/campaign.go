// Package campaign is the deterministic, parallel acquisition engine
// behind the repo's simulation experiments: side-channel trace
// campaigns (internal/sca), fault-space sweeps (internal/fault),
// lossy-link session sweeps (internal/linksim), fleet simulations
// (internal/fleet) and design-space grids (cmd/designlab). There is
// one engine, Run, a three-stage pipeline:
//
//	prepare (serial, index order)  →  acquire (worker pool, lane batches)  →  fold (per shard, index order)  →  merge (shard order)
//
// The engine is generic in the job type J (what prepare hands to a
// worker), the result type R (what a worker hands back) and the
// accumulator type A (what a shard folds into): a trace.Trace into a
// Welch accumulator for power campaigns, a fault classification into a
// tally for injection sweeps, a device outcome into a fleet
// accumulator.
//
// Determinism contract (the property every test in internal/sca,
// internal/fault, internal/fleet and internal/linksim pins):
//
//   - prepare(idx) runs on a single dispatcher goroutine in strictly
//     increasing index order, so it may draw from shared stateful RNG
//     streams (attacker point selection, per-trace random keys);
//   - acquire must be a pure function of the indices and jobs it is
//     handed: every per-sample random substream (device TRNG,
//     measurement noise, channel faults) derives from the sample index,
//     never from worker identity, batch grouping or scheduling. The
//     worker id exists only so workers can own scratch state (a lane
//     CPU bank, reset per batch);
//   - the range [from, to) is cut into S contiguous shard blocks
//     (ShardingFor), so shard membership is a pure function of the
//     index; each shard folds its results in strictly increasing index
//     order, and the shard accumulators are merged on the caller's
//     goroutine in shard order 0, 1, …, S-1.
//
// The reduction is therefore a fixed tree over the sample indices,
// determined entirely by (from, to, S): the merged result is
// bit-identical for any worker count and any lane count. S = 1 is the
// serial fold — one shard, one cursor, every sample folded in global
// index order — and is what order-sensitive callers (linksim's float
// sums, early-stop TVLA) select. Different S reassociate
// floating-point sums, so statistics agree across shard counts only to
// rounding.
//
// Early stopping is a fold sentinel: a fold that decides the campaign
// is over (TVLA's |t| threshold) returns an error of its own, and the
// error contract below makes the stopping index — and with S = 1 the
// folded prefix — the same at any worker or lane count. After a stop,
// prepare may already have run for a few indices past the stopping
// point; callers sharing an RNG stream across separate campaigns should
// not combine that sharing with early stopping.
//
// Error contract: when prepare, acquire or fold fails, the engine stops
// dispatching new work but still acquires and folds the indices below
// the failure that were already dispatched, then returns the error of
// the lowest failing index (a batch error counts at the batch's first
// index). Because every index below that point is processed, the
// returned error does not depend on scheduling. Cancellation (Ctx) and
// Checkpoint hook errors stop the run at once.
package campaign

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"medsec/internal/obs"
)

// ErrInterrupted is returned by Run when the configured context is
// cancelled (SIGINT/SIGTERM in the CLIs). The final checkpoint hook
// has already run by the time it is returned: the caller's
// accumulators are exactly the reported cursors, ready to be persisted
// or discarded.
var ErrInterrupted = errors.New("campaign: interrupted")

// MaxWorkers caps the pool: campaign throughput saturates the memory
// hierarchy well before this, and the reorder buffers grow with the
// worker count.
const MaxWorkers = 64

// MaxLanes caps the batch width. Beyond this the lane bank's working
// set outgrows the cache levels that make batching profitable.
const MaxLanes = 64

// DefaultShards is the shard count selected by Config.Shards == 0.
// Eight shards keep the merge cost trivial while giving the reduction
// enough independent accumulators that workers almost never contend on
// a shard lock.
const DefaultShards = 8

// BufferPool is a typed free list for the per-sample buffers that flow
// through a campaign (power samples, iteration indices). Acquirers Get
// a zero-length buffer, fill it, and hand the result to the fold; the
// fold calls Put once the statistics have been folded. In steady state
// every trace reuses a buffer retired a few indices earlier, so the
// acquisition loop allocates ~nothing per trace no matter how long the
// campaign runs.
//
// A Put buffer must not be used afterwards; Get truncates to length 0
// but does not zero memory.
//
// The pool self-accounts its effectiveness (PoolStats): hits are Gets
// satisfied from a recycled buffer, misses are Gets that had to
// allocate (empty pool or insufficient capacity). The two atomic adds
// per Get are the only always-on instrumentation in the hot path —
// they allocate nothing and cost nanoseconds against millisecond-scale
// acquisitions.
type BufferPool[T any] struct {
	p      sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
}

// PoolStats is a BufferPool effectiveness snapshot.
type PoolStats struct {
	// Hits counts Gets served from a recycled buffer; Misses counts
	// Gets that allocated fresh storage.
	Hits, Misses int64
}

// HitRate returns Hits/(Hits+Misses), 0 when the pool is unused.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the pool's cumulative hit/miss counts.
func (bp *BufferPool[T]) Stats() PoolStats {
	return PoolStats{Hits: bp.hits.Load(), Misses: bp.misses.Load()}
}

// Get returns a zero-length buffer with capacity at least n.
func (bp *BufferPool[T]) Get(n int) []T {
	if v := bp.p.Get(); v != nil {
		buf := *v.(*[]T)
		if cap(buf) >= n {
			bp.hits.Add(1)
			return buf[:0]
		}
	}
	bp.misses.Add(1)
	return make([]T, 0, n)
}

// Put retires a buffer for reuse. Nil and zero-capacity buffers are
// dropped.
func (bp *BufferPool[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	bp.p.Put(&buf)
}

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS, and the result is clamped to [1, MaxWorkers].
func Workers(requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Lanes resolves a requested batch width: values <= 0 select 1, and
// the result is capped at MaxLanes.
func Lanes(requested int) int {
	l := requested
	if l <= 0 {
		l = 1
	}
	if l > MaxLanes {
		l = MaxLanes
	}
	return l
}

// Config tunes one engine run.
type Config struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS (capped at
	// MaxWorkers). The worker count never affects the merged result.
	Workers int
	// Shards is the number of reduction shards S; 0 selects
	// DefaultShards and negative values are refused. S is part of the
	// experiment definition: S = 1 is the serial in-order fold, and
	// changing S reassociates floating-point reductions (results agree
	// across S only to rounding).
	Shards int
	// Lanes is the acquisition batch width: the dispatcher groups up to
	// Lanes consecutive indices of one shard into a batch, and the
	// acquirer retires a batch at a time. <= 0 selects 1. Batch
	// grouping is unobservable in the results.
	Lanes int
	// Progress, when non-nil, is invoked with the number of folded
	// samples (including a resumed prefix) after each fold batch.
	// Values are strictly increasing but may skip counts; on a
	// successful run the final call reports to-from.
	Progress func(done int)
	// Metrics, when non-nil, receives campaign instrumentation:
	// counters campaign_prepared / campaign_acquired / campaign_folded
	// / campaign_batch_underfill, gauges campaign_workers /
	// campaign_shards / campaign_lanes / campaign_run_ns /
	// campaign_merge_ns, and histograms campaign_fold_batch (drain
	// batch sizes) and campaign_batch_fill (acquisition batch widths).
	// The run and merge timings are published by every run. A nil
	// registry costs nothing (every obs method is a nil-safe no-op).
	Metrics *obs.Registry
	// Ctx, when non-nil, makes the run interruptible: on cancellation
	// the pool drains, the Checkpoint hook runs one final time with the
	// per-shard cursors, and Run returns ErrInterrupted (the merge
	// phase is skipped). A nil Ctx is never checked.
	Ctx context.Context
	// Resume holds per-shard global cursors from a checkpoint: shard s
	// has already folded indices [lo_s, Resume[s]) in a previous
	// process. prepare replays the folded indices in order (shared RNG
	// streams advance identically); acquire and fold skip them. The
	// length must equal the resolved shard count and every cursor must
	// lie inside its shard's block.
	Resume []int
	// Checkpoint, when non-nil, is called whenever the folded count
	// (resumed + new) crosses a CheckpointEvery multiple (if
	// CheckpointEvery > 0), and once more after an interrupt. The
	// hook receives the per-shard cursors, taken and held under every
	// shard lock — the accumulators the caller closes over are exactly
	// the folded prefixes [lo_s, cursors[s]) for the whole call.
	// Periodic calls arrive on a worker goroutine (all folding pauses
	// meanwhile; keep the hook short), the interrupt call on the
	// caller's. A hook error aborts the run.
	Checkpoint func(cursors []int) error
	// CheckpointEvery is the folded-sample interval between periodic
	// Checkpoint calls; <= 0 disables them.
	CheckpointEvery int
}

// PrepareFunc builds the job for sample idx. Called serially in index
// order; may draw from shared stateful streams.
type PrepareFunc[J any] func(idx int) (J, error)

// AcquireBatchFunc acquires results for the contiguous index run
// [start, start+len(jobs)), writing out[i] for index start+i. Called
// concurrently; must depend only on the indices and jobs — worker
// exists for worker-owned scratch. len(out) == len(jobs) >= 1; an
// error poisons the whole batch.
type AcquireBatchFunc[J, R any] func(worker, start int, jobs []J, out []R) error

// AcquireFunc acquires the result for one sample. Called concurrently;
// must depend only on (idx, job).
type AcquireFunc[J, R any] func(worker, idx int, job J) (R, error)

// PerSample lifts a per-sample acquirer onto the batch contract, for
// campaigns whose samples have no lane-batched simulator (fleet
// devices, fault injections, link sessions, design points). The batch
// stops at its first failing sample and reports that sample's error.
func PerSample[J, R any](acquire AcquireFunc[J, R]) AcquireBatchFunc[J, R] {
	return func(worker, start int, jobs []J, out []R) error {
		for i := range jobs {
			r, err := acquire(worker, start+i, jobs[i])
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	}
}

// Sharding describes how a bounded index range [From, To) is cut into
// contiguous shard blocks. Callers that build per-shard accumulators
// keyed by global index use it to recover each shard's index block.
type Sharding struct {
	From, To int
	// Block is the nominal block length; shard s covers
	// [From+s·Block, min(From+(s+1)·Block, To)).
	Block int
	// N is the number of (all non-empty) shards.
	N int
}

// ShardingFor resolves a requested shard count over [from, to):
// requested <= 0 selects DefaultShards, and the count is reduced so
// every shard is non-empty. An empty range yields N == 0.
func ShardingFor(from, to, requested int) Sharding {
	n := to - from
	if n <= 0 {
		return Sharding{From: from, To: to, Block: 1, N: 0}
	}
	s := requested
	if s <= 0 {
		s = DefaultShards
	}
	if s > n {
		s = n
	}
	block := (n + s - 1) / s
	return Sharding{From: from, To: to, Block: block, N: (n + block - 1) / block}
}

// Shard returns the shard owning global index idx.
func (sh Sharding) Shard(idx int) int { return (idx - sh.From) / sh.Block }

// Bounds returns the half-open global index range [lo, hi) of shard s.
func (sh Sharding) Bounds(s int) (lo, hi int) {
	lo = sh.From + s*sh.Block
	hi = lo + sh.Block
	if hi > sh.To {
		hi = sh.To
	}
	return lo, hi
}
