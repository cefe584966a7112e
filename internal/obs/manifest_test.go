package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestRoundTrip pins the -metrics artifact contract: a written
// manifest reads back with every provenance key intact and validates.
func TestManifestRoundTrip(t *testing.T) {
	r := New()
	r.Counter("traces_acquired").Add(128)
	r.Gauge("traces_per_sec").Set(2500)
	fs := flag.NewFlagSet("tvla", flag.ContinueOnError)
	fs.Int("traces", 64, "")
	fs.Uint64("seed", 1, "")
	if err := fs.Parse([]string{"-traces", "64"}); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("scalab", "tvla", 1, fs, r)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "scalab" || got.Subcommand != "tvla" || got.Seed != 1 {
		t.Fatalf("identity fields corrupted: %+v", got)
	}
	if got.GoVersion == "" || got.GoMaxProcs == 0 || got.NumCPU == 0 || got.GitSHA == "" {
		t.Fatalf("environment stamp incomplete: %+v", got)
	}
	if got.Flags["traces"] != "64" || got.Flags["seed"] != "1" {
		t.Fatalf("flag set not captured: %v", got.Flags)
	}
	if got.Metrics.Counters["traces_acquired"] != 128 {
		t.Fatalf("metric snapshot not round-tripped: %v", got.Metrics.Counters)
	}
	if got.Metrics.Gauges["traces_per_sec"] != 2500 {
		t.Fatalf("gauge not round-tripped: %v", got.Metrics.Gauges)
	}
}

// TestManifestValidateRejectsForeignJSON ensures truncated or foreign
// JSON is rejected rather than silently folded into reports.
func TestManifestValidateRejectsForeignJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(path, []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("foreign JSON accepted as manifest")
	} else if !strings.Contains(err.Error(), "missing required keys") {
		t.Fatalf("wrong rejection: %v", err)
	}
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestManifestNilRegistry: a manifest over a nil registry is still a
// valid provenance record (empty metrics, not null).
func TestManifestNilRegistry(t *testing.T) {
	m := NewManifest("linklab", "", 7, nil, nil)
	if err := m.Validate(); err != nil {
		t.Fatalf("nil-registry manifest invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err != nil {
		t.Fatal(err)
	}
}
