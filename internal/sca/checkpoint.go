package sca

import (
	"fmt"
	"os"

	"medsec/internal/store"
)

// CampaignCheckpoint configures durable crash-safe checkpointing for
// the checkpoint-aware campaigns: the fixed-vs-random family (TVLA,
// TVLA2, their early-stop forms and LeakageMap, which share one fold
// leg) and the TracesToSuccess search. Set it on Target.Ckpt; a nil
// value (the default) disables checkpointing entirely. Kind must name
// the campaign flavor: an early-stop campaign and a full-budget one of
// the same order write the same one-shard checkpoints.
//
// The campaign writes a store.Checkpoint to Path whenever its folded
// count crosses an Every multiple and once more when the run is
// interrupted via Target.Ctx, so a killed process loses at most Every
// traces of work. With Resume set, the campaign first loads Path (a
// missing file is a clean start, not an error), refuses it unless the
// provenance header matches the current run — same tool, kind, seed,
// git SHA, design point, index range and shard count — and then
// continues from the stored position: a one-shard campaign's watermark
// (a finished one may grow to a larger budget) or a sharded one's
// per-shard cursors. Resumed campaigns are bit-identical to
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
