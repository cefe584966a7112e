package main

import (
	"context"
	"strings"
	"testing"
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
