package main

import (
	"bytes"
	"context"
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

// TestResumeNeedsCheckpoint: -resume without a -checkpoint file to
// resume from is refused by name before the run starts.
func TestResumeNeedsCheckpoint(t *testing.T) {
	err := run(context.Background(), []string{"run", "-devices", "4", "-resume"})
	if err == nil || err.Error() != "-resume needs -checkpoint" {
		t.Fatalf("err = %v, want -resume needs -checkpoint", err)
	}
}
