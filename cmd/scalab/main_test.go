package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/obs"
)

// TestRunRefusesNegativeShards drives the CLI entry point in process: a
// negative -shards is refused by name on every campaign subcommand,
// before any acquisition starts.
func TestRunRefusesNegativeShards(t *testing.T) {
	for _, sub := range []string{"dpa", "spa", "tvla", "leakmap"} {
		err := run(context.Background(), []string{sub, "-shards", "-1"})
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("scalab %s -shards -1: err = %v, want a refusal naming -shards", sub, err)
		}
	}
}

// TestTVLAManifestCountersAgreeAcrossWorkers runs an instrumented
// `scalab tvla -traces 64 -metrics` at 2 and 7 workers and reads both
// manifests back. Atomic counter adds commute, so the counter maps
// must be equal; 64 traces per set over two sets is 128 acquisitions.
func TestTVLAManifestCountersAgreeAcrossWorkers(t *testing.T) {
	var counters []map[string]int64
	for _, workers := range []int{2, 7} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("manifest%d.json", workers))
		args := []string{"tvla", "-traces", "64", "-workers", fmt.Sprint(workers), "-metrics", path}
		if err := run(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		m, err := obs.ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Flags) == 0 {
			t.Fatalf("workers=%d: manifest carries no flag set", workers)
		}
		if got := m.Metrics.Counters["sca_traces_acquired"]; got != 128 {
			t.Fatalf("workers=%d: sca_traces_acquired = %d, want 128", workers, got)
		}
		counters = append(counters, m.Metrics.Counters)
	}
	if !reflect.DeepEqual(counters[0], counters[1]) {
		t.Fatalf("counters differ across worker counts:\n 2: %v\n 7: %v", counters[0], counters[1])
	}
}

// TestTVLAForeignCheckpointRefusedByName writes a seed-3 TVLA
// checkpoint, then resumes it at -seed 4: the resume must be refused
// with the mismatching provenance field named.
func TestTVLAForeignCheckpointRefusedByName(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "tvla.msckpt")
	if err := run(context.Background(), []string{"tvla", "-traces", "20", "-seed", "3", "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"tvla", "-traces", "20", "-seed", "4", "-checkpoint", ckpt, "-resume"})
	if err == nil || !strings.Contains(err.Error(), "provenance mismatch on seed") {
		t.Fatalf("seed-4 resume of a seed-3 checkpoint: err = %v, want a provenance mismatch on seed", err)
	}
}
