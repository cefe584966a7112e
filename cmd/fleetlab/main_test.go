package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runFleetlab drives the CLI entry point in process as
// `fleetlab sub -o out args...` and returns the file -o wrote.
func runFleetlab(t *testing.T, out, sub string, args ...string) []byte {
	t.Helper()
	args = append([]string{sub, "-o", out}, args...)
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("fleetlab %v: %v", args, err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRunReportIndependentOfWorkersAndShards pins the rendered fleet
// report (the -o file: render output only, no timing line) to be
// byte-identical across worker counts and reduction layouts.
func TestRunReportIndependentOfWorkersAndShards(t *testing.T) {
	dir := t.TempDir()
	w1 := runFleetlab(t, filepath.Join(dir, "w1.txt"), "run", "-devices", "60", "-seed", "9", "-workers", "1", "-shards", "1")
	w7 := runFleetlab(t, filepath.Join(dir, "w7.txt"), "run", "-devices", "60", "-seed", "9", "-workers", "7", "-shards", "4")
	if len(w1) == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(w1, w7) {
		t.Fatalf("report differs between workers=1/shards=1 and workers=7/shards=4:\n%s\n---\n%s", w1, w7)
	}
}

// TestMergeOfShardRunsMatchesSingleProcess pins the scale-out contract
// at the CLI surface: three -shard i/3 runs, each at a different worker
// count, merged in scrambled order, reproduce the single-process report
// byte for byte.
func TestMergeOfShardRunsMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	shard := func(i int) string { return filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i)) }
	for i := 0; i < 3; i++ {
		runFleetlab(t, shard(i), "run", "-devices", "61", "-seed", "9", "-workers", fmt.Sprint(i+1), "-shard", fmt.Sprintf("%d/3", i))
	}
	merged := runFleetlab(t, filepath.Join(dir, "merged.txt"), "merge", shard(2), shard(0), shard(1))
	single := runFleetlab(t, filepath.Join(dir, "single.txt"), "run", "-devices", "61", "-seed", "9", "-workers", "2")
	if !bytes.Equal(merged, single) {
		t.Fatalf("merged shard report differs from the single-process report:\n%s\n---\n%s", merged, single)
	}
}
