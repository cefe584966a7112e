package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestReportsMatchGolden drives run in process and byte-compares its
// report with one recorded from the internal/core chip:
// the E1 table with the component breakdown and the microcode listing
// at the paper's point, and a noisy d = 16 WDDL chip whose total sums
// two noisy point multiplications.
func TestReportsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"n3-breakdown-dump8.txt", []string{"-n", "3", "-breakdown", "-dump", "8"}},
		{"n2-d16-wddl-noise.txt", []string{"-n", "2", "-d", "16", "-style", "wddl", "-noise", "0.03"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(context.Background(), tc.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("eccsim %v differs from testdata/%s:\n%s\n--- want ---\n%s", tc.args, tc.golden, got.Bytes(), want)
			}
		})
	}
}
