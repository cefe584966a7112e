package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"medsec/internal/campaign"
	"medsec/internal/obs"
	"medsec/internal/store"
)

// TestRunRefusesNegativeShards drives the CLI entry point in process: a
// negative -shards is refused by name on every campaign subcommand,
// before any acquisition starts.
func TestRunRefusesNegativeShards(t *testing.T) {
	for _, sub := range []string{"dpa", "spa", "tvla", "leakmap"} {
		err := run(context.Background(), []string{sub, "-shards", "-1"}, io.Discard, io.Discard)
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
		if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
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
	if err := run(context.Background(), []string{"tvla", "-traces", "20", "-seed", "3", "-checkpoint", ckpt}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"tvla", "-traces", "20", "-seed", "4", "-checkpoint", ckpt, "-resume"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "provenance mismatch on seed") {
		t.Fatalf("seed-4 resume of a seed-3 checkpoint: err = %v, want a provenance mismatch on seed", err)
	}
}

// report runs scalab in process and returns its report without the
// timing-dependent throughput line, the last thing a campaign prints.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatalf("scalab %v: %v", args, err)
	}
	out := buf.String()
	if i := strings.Index(out, "\ncampaign throughput:"); i >= 0 {
		out = out[:i]
	}
	return out
}

// TestReportsIndependentOfShape byte-compares the reports of one
// campaign run at several -workers/-shards/-lanes shapes: first-order
// tvla, second-order tvla on the masked target, and leakmap. Workers
// and lanes never change a result; a shard count reassociates the fold
// only below the printed precision.
func TestReportsIndependentOfShape(t *testing.T) {
	shapes := [][]string{
		{"-workers", "1", "-lanes", "1"},
		{"-workers", "2", "-lanes", "4"},
		{"-workers", "7", "-shards", "4", "-lanes", "4"},
	}
	for _, tc := range []struct {
		name string
		args []string
		want string // a line every report must hold
	}{
		{"tvla", []string{"tvla", "-traces", "600", "-seed", "5"}, "verdict"},
		{"tvla-order2-masked", []string{"tvla", "-traces", "800", "-order", "2", "-masking", "boolean1", "-rpc=false", "-seed", "3"},
			"FAIL (leakage detected)"},
		{"leakmap", []string{"leakmap", "-traces", "200", "-balanced=false", "-seed", "5"}, "by circuit block:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := report(t, append(tc.args, shapes[0]...)...)
			if !strings.Contains(ref, tc.want) {
				t.Fatalf("report holds no %q:\n%s", tc.want, ref)
			}
			for _, shape := range shapes[1:] {
				if got := report(t, append(tc.args, shape...)...); got != ref {
					t.Errorf("%v: report differs from %v:\n%s\n---\n%s", shape, shapes[0], got, ref)
				}
			}
		})
	}
}

// killAtFirstCheckpoint runs scalab with the given -checkpoint file
// and cancels its context, as SIGINT does, once the first periodic
// checkpoint exists, and returns the header of the checkpoint the
// killed run left. It fails unless the run was cut short: a run that
// finished first would test only the completed-checkpoint
// short-circuit.
func killAtFirstCheckpoint(t *testing.T, path string, args ...string) store.Header {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, io.Discard, io.Discard) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			t.Fatalf("scalab %v ended (err %v) before its first checkpoint was written", args, err)
		case <-tick.C:
			if _, err := os.Stat(path); err != nil {
				continue
			}
			cancel()
			if err := <-done; !errors.Is(err, campaign.ErrInterrupted) {
				t.Fatalf("scalab %v killed at its first checkpoint returned %v, want an interrupt", args, err)
			}
			ck, err := store.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Header.Complete {
				t.Fatalf("scalab %v killed at its first checkpoint left a finished one", args)
			}
			return ck.Header
		}
	}
}

// TestTVLAKillResume kills a tvla campaign once its first checkpoint
// is on disk, resumes it at another worker and lane count, and
// byte-compares the report with an uninterrupted run's: for four
// shards, one shard, and the early-stop fold (which does not stop with
// RPC on).
func TestTVLAKillResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"shards-4", []string{"-shards", "4"}},
		{"shards-1", []string{"-shards", "1"}},
		{"early", []string{"-early"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"tvla", "-traces", "1500", "-seed", "3"}, tc.args...)
			path := filepath.Join(t.TempDir(), "tvla.msckpt")
			ref := report(t, append(args, "-workers", "2", "-lanes", "4")...)
			killAtFirstCheckpoint(t, path, append(args, "-workers", "1", "-lanes", "8",
				"-checkpoint", path, "-checkpoint-interval", "50")...)
			manifest := filepath.Join(t.TempDir(), "manifest.json")
			got := report(t, append(args, "-workers", "7", "-lanes", "1", "-checkpoint", path, "-resume", "-metrics", manifest)...)
			if got != ref {
				t.Fatalf("resumed report differs from the uninterrupted run:\n%s\n---\n%s", got, ref)
			}
			m, err := obs.ReadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if n := m.Metrics.Counters["sca_traces_acquired"]; n >= 3000 {
				t.Fatalf("the resumed run acquired %d traces; it must skip the checkpointed prefix", n)
			}
		})
	}
}

// TestDPAKillResume kills the DPA traces-to-success search once its
// first checkpoint is on disk, resumes it at another worker count, and
// byte-compares the report with an uninterrupted run's. With RPC on,
// four bits are not recovered within 4 000 traces, so the search grows
// its campaign through the whole size ladder (25, 50, 100, ... 4 000)
// and checkpoints after each size; at one worker the first checkpoint
// lands long before the last size. The resumed run must acquire only
// the traces past the killed run's watermark.
func TestDPAKillResume(t *testing.T) {
	args := []string{"dpa", "-traces", "4000", "-bits", "4", "-seed", "3"}
	path := filepath.Join(t.TempDir(), "dpa.msckpt")
	ref := report(t, append(args, "-workers", "7")...)
	killed := killAtFirstCheckpoint(t, path, append(args, "-workers", "1", "-checkpoint", path)...)
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	got := report(t, append(args, "-workers", "7", "-checkpoint", path, "-resume", "-metrics", manifest)...)
	if got != ref {
		t.Fatalf("resumed report differs from the uninterrupted run:\n%s\n---\n%s", got, ref)
	}
	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := m.Metrics.Counters["sca_traces_acquired"], int64(4000-killed.Watermark); killed.Watermark == 0 || n != want {
		t.Fatalf("the resumed run acquired %d traces from a checkpoint at %d; want %d, the checkpointed prefix skipped",
			n, killed.Watermark, want)
	}
}
