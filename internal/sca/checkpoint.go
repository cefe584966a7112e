package sca

import (
	"errors"
	"fmt"
	"os"

	"medsec/internal/campaign"
	"medsec/internal/store"
	"medsec/internal/trace"
)

// CampaignCheckpoint configures durable crash-safe checkpointing for
// the checkpoint-aware campaigns (TVLA / TVLAUntil and the
// TracesToSuccess search). Set it on Target.Ckpt; a nil value (the
// default) disables checkpointing entirely.
//
// The campaign writes a store.Checkpoint to Path whenever its folded
// watermark crosses an Every multiple and once more when the run is
// interrupted via Target.Ctx, so a killed process loses at most Every
// traces of work. With Resume set, the campaign first loads Path (a
// missing file is a clean start, not an error), refuses it unless the
// provenance header matches the current run — same tool, kind, seed,
// git SHA, design point and index range — and then continues from the
// stored watermark. Resumed campaigns are bit-identical to
// uninterrupted ones: the engine replays the prepare stream over the
// already-folded prefix so shared RNG streams advance exactly as they
// did the first time (see campaign.Config.Resume).
type CampaignCheckpoint struct {
	// Path is the checkpoint file. Writes are atomic (temp + fsync +
	// rename), so the file is always either the previous checkpoint or
	// the new one, never a torn mix.
	Path string
	// Every is the folded-trace interval between periodic checkpoint
	// writes; <= 0 writes only the interrupt-path and completion
	// checkpoints.
	Every int
	// Header carries the provenance the checkpoint is chained to:
	// Tool, Kind, Seed, GitSHA and the resolved design Point. The
	// campaign fills the range fields (From/To/Shards/Watermark/
	// Cursors/Complete) itself.
	Header store.Header
	// Resume asks the campaign to continue from Path if it exists.
	Resume bool
}

// enabled reports whether checkpoint writes are configured (nil-safe).
func (c *CampaignCheckpoint) enabled() bool { return c != nil && c.Path != "" }

// campHeader binds the provenance header to a campaign's index range.
func (c *CampaignCheckpoint) campHeader(from, to, shards int) store.Header {
	h := c.Header
	h.From, h.To, h.Shards = from, to, shards
	h.Watermark, h.Cursors, h.Complete = 0, nil, false
	return h
}

// load reads and validates the checkpoint when Resume is set. A
// missing file — the first run of a campaign that will be checkpointed
// — returns (nil, nil).
func (c *CampaignCheckpoint) load(from, to, shards int) (*store.Checkpoint, error) {
	if !c.enabled() || !c.Resume {
		return nil, nil
	}
	ck, err := store.Read(c.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if err := ck.Header.Match(c.campHeader(from, to, shards)); err != nil {
		return nil, fmt.Errorf("sca: checkpoint %s does not belong to this campaign: %w", c.Path, err)
	}
	return ck, nil
}

// write persists one checkpoint atomically.
func (c *CampaignCheckpoint) write(h store.Header, blobs map[string][]byte) error {
	return store.Write(c.Path, &store.Checkpoint{Header: h, Blobs: blobs})
}

// errEarlyStop is the early-stop fold sentinel: the running t-curve
// crossed TVLAThreshold at a check point, so the campaign is over.
var errEarlyStop = errors.New("sca: early stop")

// tvlaUntil runs the early-stop TVLA leg with optional
// checkpoint/resume and returns the total folded trace count,
// including any prefix restored from a checkpoint. The leg is the
// engine's serial fold (one shard) straight into w: after every
// checkEvery-th completed pair (but not before 10 pairs) the fold
// evaluates the running t-curve and returns errEarlyStop once |t|
// exceeds TVLAThreshold, so the stopping pair and w are the same at any
// worker or lane count. Its checkpoints carry a single watermark and
// no shard cursors, which is what lets a Complete checkpoint at a
// smaller budget seed a larger campaign in a later process. blobKey
// names the accumulator's checkpoint blob ("welch" for the first-order
// campaign, "welch2" for the second-order one), so a checkpoint written
// by one statistical order can never silently seed the other.
func tvlaUntil[W welchStat[W]](t *Target, w W, blobKey string, to, checkEvery int, plan *acqPlan, prepare campaign.PrepareFunc[acqJob]) (int, error) {
	ck := t.Ckpt
	resumed := 0
	prev, err := ck.load(0, to, 0)
	if err != nil {
		return 0, err
	}
	if prev != nil {
		if err := w.UnmarshalBinary(prev.Blobs[blobKey]); err != nil {
			return 0, fmt.Errorf("sca: checkpoint %s %s blob: %w", ck.Path, blobKey, err)
		}
		if prev.Header.Complete && (prev.Header.Watermark < prev.Header.To || prev.Header.To == to) {
			// A finished campaign: either it early-stopped (the verdict
			// stands regardless of the requested budget) or it covered
			// exactly this range. The engine has nothing to add.
			return prev.Header.Watermark, nil
		}
		// Complete checkpoints of a SMALLER full campaign fall through:
		// that is the cross-process extension case — the fold continues
		// from the stored watermark up to the new budget.
		resumed = prev.Header.Watermark
	}
	cfg := t.engineConfig()
	cfg.Shards = 1
	writeAt := func(mark int, complete bool) error {
		blob, err := w.MarshalBinary()
		if err != nil {
			return err
		}
		h := ck.campHeader(0, to, 0)
		h.Watermark, h.Complete = mark, complete
		return ck.write(h, map[string][]byte{blobKey: blob})
	}
	if ck.enabled() {
		cfg.Resume = []int{resumed}
		cfg.CheckpointEvery = ck.Every
		// The hook runs holding the shard lock: w is exactly the folded
		// prefix [0, cursors[0]) when it fires.
		cfg.Checkpoint = func(cursors []int) error { return writeAt(cursors[0], false) }
	}
	checks := t.Metrics.Counter("sca_earlystop_checks")
	stopAt := to
	_, err = runCampaign(t, 0, to, cfg, plan, prepare,
		func(int) W { return w },
		func(shard int, acc W, idx int, j acqJob, tr trace.Trace) error {
			if err := welchShardFold(shard, acc, idx, j, tr); err != nil || idx%2 == 0 {
				return err
			}
			if pairs := idx/2 + 1; pairs >= 10 && pairs%checkEvery == 0 {
				checks.Inc()
				if mx, _ := acc.MaxT(); mx > TVLAThreshold {
					stopAt = idx + 1
					return errEarlyStop
				}
			}
			return nil
		},
		func(int, W) error { return nil })
	if err != nil && !errors.Is(err, errEarlyStop) {
		return 0, err
	}
	if ck.enabled() {
		if err := writeAt(stopAt, true); err != nil {
			return stopAt, err
		}
	}
	return stopAt, nil
}

// tvlaSharded runs the sharded-reduction TVLA engine leg with optional
// checkpoint/resume and returns the total folded trace count,
// including any prefix restored from a checkpoint. Periodic
// checkpoints store the per-shard accumulators plus the per-shard
// cursors; the completion checkpoint stores the merged accumulator.
// mk constructs an empty accumulator of the campaign's statistical
// order; blobKey namespaces the checkpoint blobs exactly as in
// tvlaUntil (per-shard blobs are "<blobKey>.<shard>").
func tvlaSharded[W welchStat[W]](t *Target, w W, blobKey string, mk func() W, to int, plan *acqPlan, prepare campaign.PrepareFunc[acqJob]) (int, error) {
	ck := t.Ckpt
	lay := campaign.ShardingFor(0, to, t.Shards)
	prev, err := ck.load(0, to, lay.N)
	if err != nil {
		return 0, err
	}
	resumed := 0
	var restored []W
	if prev != nil {
		if prev.Header.Complete {
			if err := w.UnmarshalBinary(prev.Blobs[blobKey]); err != nil {
				return 0, fmt.Errorf("sca: checkpoint %s %s blob: %w", ck.Path, blobKey, err)
			}
			return prev.Header.Watermark, nil
		}
		if len(prev.Header.Cursors) != lay.N {
			return 0, fmt.Errorf("sca: checkpoint %s has %d shard cursors, campaign has %d shards",
				ck.Path, len(prev.Header.Cursors), lay.N)
		}
		restored = make([]W, lay.N)
		for s := range restored {
			acc := mk()
			if err := acc.UnmarshalBinary(prev.Blobs[fmt.Sprintf("%s.%d", blobKey, s)]); err != nil {
				return 0, fmt.Errorf("sca: checkpoint %s shard %d blob: %w", ck.Path, s, err)
			}
			restored[s] = acc
		}
		resumed = prev.Header.Watermark
	}
	scfg := t.engineConfig()
	// The shard bank is retained so the checkpoint hook — which runs
	// holding every shard lock (campaign.Config.Checkpoint) —
	// can snapshot accumulators consistent with the cursor vector.
	accs := make([]W, lay.N)
	newShard := func(s int) W {
		acc := mk()
		if restored != nil {
			acc = restored[s]
		}
		accs[s] = acc
		return acc
	}
	if ck.enabled() {
		if prev != nil {
			scfg.Resume = prev.Header.Cursors
		}
		scfg.CheckpointEvery = ck.Every
		scfg.Checkpoint = func(cursors []int) error {
			blobs := make(map[string][]byte, lay.N)
			mark := 0
			for s, acc := range accs {
				blob, err := acc.MarshalBinary()
				if err != nil {
					return err
				}
				blobs[fmt.Sprintf("%s.%d", blobKey, s)] = blob
				lo, _ := lay.Bounds(s)
				mark += cursors[s] - lo
			}
			h := ck.campHeader(0, to, lay.N)
			h.Watermark, h.Cursors = mark, cursors
			return ck.write(h, blobs)
		}
	}
	folded, err := runCampaign(t, 0, to, scfg, plan, prepare,
		newShard, welchShardFold[W], welchShardMerge(w))
	total := folded + resumed
	if err != nil {
		return total, err
	}
	if ck.enabled() {
		blob, err := w.MarshalBinary()
		if err != nil {
			return total, err
		}
		h := ck.campHeader(0, to, lay.N)
		h.Watermark, h.Complete = total, true
		h.Cursors = make([]int, lay.N)
		for s := range h.Cursors {
			_, h.Cursors[s] = lay.Bounds(s)
		}
		if err := ck.write(h, map[string][]byte{blobKey: blob}); err != nil {
			return total, err
		}
	}
	return total, nil
}
