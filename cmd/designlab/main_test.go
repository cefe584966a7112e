package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/obs"
)

// grid runs the 2×2 grid (digit width × logic style, RPC on) in
// process at the given worker count, with its frontier manifests in a
// fresh directory. It returns the report without the line naming that
// directory, and the directory.
func grid(t *testing.T, workers int) (string, string) {
	t.Helper()
	dir := t.TempDir()
	args := []string{"-d", "1,4", "-logic", "cmos,wddl", "-rpc", "on", "-reps", "4", "-tvla", "20",
		"-workers", fmt.Sprint(workers), "-manifest-dir", dir}
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("designlab %v: %v", args, err)
	}
	out := buf.String()
	note := fmt.Sprintf("wrote 3 frontier manifest(s) to %s\n", dir)
	if !strings.HasSuffix(out, note) {
		t.Fatalf("workers=%d: report does not end with %q:\n%s", workers, note, out)
	}
	return strings.TrimSuffix(out, note), dir
}

// TestGridReportAndManifests runs the 2×2 grid at 2 and 7 workers.
// Both reports must equal the one recorded from the internal/core
// chip byte for byte (the session energies are priced from
// MeasurePointMul), and every frontier manifest must load through
// obs.ReadManifest, the loader reportgen's -manifests uses, with the
// same metrics at both worker counts.
func TestGridReportAndManifests(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "grid-2x2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var metrics []map[string]obs.Snapshot
	for _, workers := range []int{2, 7} {
		got, dir := grid(t, workers)
		if got != string(want) {
			t.Errorf("workers=%d: report differs from testdata/grid-2x2.txt:\n%s\n--- want ---\n%s", workers, got, want)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 3 {
			t.Fatalf("workers=%d: %d frontier manifests, want 3", workers, len(paths))
		}
		byName := map[string]obs.Snapshot{}
		for _, p := range paths {
			m, err := obs.ReadManifest(p)
			if err != nil {
				t.Fatal(err)
			}
			if m.Tool != "designlab" || m.Subcommand != "frontier" || m.Flags["point"] == "" {
				t.Fatalf("%s: tool %q, subcommand %q, point %q; want a designlab frontier manifest carrying its point",
					filepath.Base(p), m.Tool, m.Subcommand, m.Flags["point"])
			}
			byName[filepath.Base(p)] = m.Metrics
		}
		metrics = append(metrics, byName)
	}
	if !reflect.DeepEqual(metrics[0], metrics[1]) {
		t.Fatalf("frontier manifest metrics differ across worker counts:\n 2: %v\n 7: %v", metrics[0], metrics[1])
	}
}
