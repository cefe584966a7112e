package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/store"
)

// interrupt runs cfg under opt, cancels it once 4 devices have
// folded, and fails the test unless the run stopped short of the
// whole fleet.
func interrupt(t *testing.T, cfg Config, opt RunOptions) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	devices := 0
	opt.Ctx = ctx
	opt.Progress = func(done int) {
		devices = done
		if done >= 4 {
			cancel()
		}
	}
	if _, err := Run(cfg, opt); err == nil {
		t.Fatal("interrupted run returned no error")
	}
	if devices >= cfg.TotalDevices() {
		t.Fatalf("interrupt landed after the full run (%d devices)", devices)
	}
}

// malformedAccums derives, from a real accumulator blob, blobs that
// decode as JSON but do not fit the config the real one was written
// for. Each is keyed by a fragment of the refusal it must draw.
func malformedAccums(t testing.TB, real []byte) map[string][]byte {
	t.Helper()
	var doc map[string][]map[string]json.RawMessage
	if err := json.Unmarshal(real, &doc); err != nil {
		t.Fatal(err)
	}
	cohorts := doc["cohorts"]
	for _, c := range cohorts {
		c["latency"] = json.RawMessage(`{}`)
	}
	emptyLatency, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	nulls := `{"cohorts":[null` + strings.Repeat(",null", len(cohorts)-1) + `]}`
	return map[string][]byte{
		"nil cohort 0":                    []byte(nulls),
		"histogram snapshot has 0 counts": emptyLatency,
		fmt.Sprintf("merging 0 cohorts into %d", len(cohorts)): []byte(`{"cohorts":[]}`),
	}
}

// TestResumeRefusesMalformedAccumulators: a checkpoint blob that
// decodes but does not fit the config is refused, naming the shard,
// before the resumed run folds into it.
func TestResumeRefusesMalformedAccumulators(t *testing.T) {
	cfg := testFleet(10)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	interrupt(t, cfg, RunOptions{Workers: 1, Shards: 1, CheckpointPath: ckpt, CheckpointEvery: 2})
	ck, err := store.Read(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob := fmt.Sprintf(accumBlobFmt, 0)
	i := 0
	for want, bad := range malformedAccums(t, ck.Blobs[blob]) {
		i++
		ck.Blobs[blob] = bad
		path := filepath.Join(dir, fmt.Sprintf("bad%d.ckpt", i))
		if err := store.Write(path, ck); err != nil {
			t.Fatal(err)
		}
		_, err := Run(cfg, RunOptions{Workers: 1, Shards: 1, CheckpointPath: path, Resume: true})
		if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), want) {
			t.Errorf("resume of %s: err = %v, want a refusal naming shard 0 and %q", bad, err, want)
		}
	}
}

// TestInterruptCheckpointsWithoutInterval: a run with a checkpoint
// path but no periodic interval still writes the final checkpoint when
// interrupted, and resuming it reproduces the uninterrupted report.
func TestInterruptCheckpointsWithoutInterval(t *testing.T) {
	cfg := testFleet(10)
	ref, err := Run(cfg, RunOptions{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	interrupt(t, cfg, RunOptions{Workers: 2, Shards: 2, CheckpointPath: ckpt})
	resumed, err := Run(cfg, RunOptions{Workers: 2, Shards: 2, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "resume from the interrupt checkpoint", ref, resumed)
}

// FuzzRestoreAccum holds the checkpoint blob decoder to its contract:
// any bytes are refused with a fleet: error, or restore to an
// accumulator that round-trips through its JSON unchanged, folds one
// outcome per cohort and renders.
func FuzzRestoreAccum(f *testing.F) {
	cfg := testFleet(4)
	rep, err := Run(cfg, RunOptions{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	real, err := json.Marshal(rep.Accum) // the encoding of a checkpoint blob
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, bad := range malformedAccums(f, real) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, err := restoreAccum(cfg, buf)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fleet: ") {
				t.Fatalf("refusal %q does not start with fleet:", err)
			}
			return
		}
		enc, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		again, err := restoreAccum(cfg, enc)
		if err != nil {
			t.Fatalf("restored accumulator's JSON is refused: %v", err)
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("JSON round trip changed the accumulator:\n%s", enc)
		}
		for c := range a.Cohorts {
			a.fold(deviceOutcome{
				cohort: c, sessions: 1, completed: 1, energyPJ: 1,
				latencyUS: []int64{200_000}, hasBattery: true, lifetimeCY: 1_000,
			})
		}
		if r := (&Report{Config: cfg, Accum: a}).Render(); !strings.HasPrefix(r, "fleet: ") {
			t.Fatalf("rendered report lost its header: %.40q", r)
		}
	})
}
