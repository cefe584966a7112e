package fleet

import (
	"encoding/json"
	"fmt"

	"medsec/internal/campaign"
	"medsec/internal/obs"
	"medsec/internal/store"
)

// Checkpoint file layout (internal/store codec): a mid-run checkpoint
// (Kind "fleet", Complete=false) carries the fleet config JSON in
// Header.Point, the device range [0, TotalDevices) in From/To, the
// per-internal-shard cursors in Header.Cursors and one accumulator
// blob per internal shard ("accum-0000", …) — the crash-safe resume
// state of one run.

const (
	toolName     = "fleetlab"
	kindRun      = "fleet"
	accumBlobFmt = "accum-%04d"
)

// runHeader is the provenance header a mid-run checkpoint carries.
func runHeader(cfg Config, lay campaign.Sharding, cursors []int) (store.Header, error) {
	pt, err := json.Marshal(cfg)
	if err != nil {
		return store.Header{}, err
	}
	return store.Header{
		Tool:    toolName,
		Kind:    kindRun,
		Seed:    cfg.Seed,
		GitSHA:  obs.GitSHA(),
		Point:   pt,
		Cursors: cursors,
		From:    lay.From,
		To:      lay.To,
		Shards:  lay.N,
	}, nil
}

// writeCheckpoint persists a mid-run snapshot: per-internal-shard
// accumulators at the cursor prefixes, atomically (temp-fsync-rename
// via store.Write).
func writeCheckpoint(path string, cfg Config, lay campaign.Sharding, cursors []int, accums []*Accum) error {
	hdr, err := runHeader(cfg, lay, cursors)
	if err != nil {
		return err
	}
	ck := &store.Checkpoint{Header: hdr, Blobs: map[string][]byte{}}
	for s, a := range accums {
		if a == nil {
			a = newAccum(cfg)
		}
		buf, err := json.Marshal(a)
		if err != nil {
			return err
		}
		ck.Blobs[fmt.Sprintf(accumBlobFmt, s)] = buf
	}
	return store.Write(path, ck)
}

// readCheckpoint loads and validates a mid-run checkpoint against the
// resuming run, returning the per-shard resume cursors and the
// restored per-internal-shard accumulators.
func readCheckpoint(path string, cfg Config, lay campaign.Sharding) (cursors []int, accums []*Accum, err error) {
	ck, err := store.Read(path)
	if err != nil {
		return nil, nil, err
	}
	cur, err := runHeader(cfg, lay, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := ck.Header.Match(cur); err != nil {
		return nil, nil, fmt.Errorf("fleet: checkpoint %s does not match this run: %w", path, err)
	}
	if ck.Header.Complete {
		return nil, nil, fmt.Errorf("fleet: checkpoint %s is complete; nothing to resume", path)
	}
	if len(ck.Header.Cursors) != lay.N {
		return nil, nil, fmt.Errorf("fleet: checkpoint has %d cursors, layout has %d shards", len(ck.Header.Cursors), lay.N)
	}
	accums = make([]*Accum, lay.N)
	for s := range accums {
		buf, ok := ck.Blobs[fmt.Sprintf(accumBlobFmt, s)]
		if !ok {
			return nil, nil, fmt.Errorf("fleet: checkpoint missing accumulator for shard %d", s)
		}
		if accums[s], err = restoreAccum(cfg, buf); err != nil {
			return nil, nil, fmt.Errorf("fleet: checkpoint %s shard %d: %w", path, s, err)
		}
	}
	return ck.Header.Cursors, accums, nil
}

// restoreAccum decodes one accumulator blob by merging it into a
// fresh accumulator for cfg, so Merge refuses a blob whose cohort
// count, cohort names or histogram shape do not fit the config. A
// valid blob restores bit for bit: every sum is 0 + x and the minimum
// is min(MaxInt64, m).
func restoreAccum(cfg Config, buf []byte) (*Accum, error) {
	var dec Accum
	if err := json.Unmarshal(buf, &dec); err != nil {
		return nil, fmt.Errorf("fleet: decoding accumulator: %w", err)
	}
	a := newAccum(cfg)
	if err := a.Merge(&dec); err != nil {
		return nil, err
	}
	return a, nil
}
