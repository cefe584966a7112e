package fault

import (
	"reflect"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
)

// TestSweepShardedDeterminismMatchesLegacy pins the sweep's reduction
// contract: because the fold is pure integer counting plus in-order
// escape-list concatenation, the sharded report is bit-identical to
// the serial fold's (one worker, one shard) for EVERY (worker, shard)
// combination — stronger than the floating-point campaigns, which
// agree across shard counts only to rounding.
func TestSweepShardedDeterminismMatchesLegacy(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	base := SweepConfig{
		FromIter: 0, ToIter: 0,
		CycleStride: 131, BitStride: 54,
		Seed: 23,
	}

	legacy := base
	legacy.Shards = 1
	legacy.Workers = 1
	ref, err := Sweep(curve, tim, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Runs() == 0 || ref.Detected == 0 {
		t.Fatalf("degenerate reference sweep: %+v", ref.Tally)
	}

	for _, workers := range []int{1, 2, 7} {
		for _, shards := range []int{0, 1, 4, 16} {
			c := base
			c.Workers = workers
			c.Shards = shards
			rep, err := Sweep(curve, tim, c)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if !reflect.DeepEqual(rep, ref) {
				t.Fatalf("workers=%d shards=%d report diverged from the serial fold:\n%+v\nvs\n%+v",
					workers, shards, rep, ref)
			}
		}
	}
}

// TestSweepShardedProgress pins that the sharded fold drives
// the Progress callback monotonically up to the grid size.
func TestSweepShardedProgress(t *testing.T) {
	curve := ec.K163()
	var seen []int
	cfg := SweepConfig{
		FromIter: 0, ToIter: 0,
		CycleStride: 173, BitStride: 82,
		Seed:     5,
		Workers:  2,
		Progress: func(done, total int) { seen = append(seen, done) },
	}
	rep, err := Sweep(curve, coproc.DefaultTiming(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[len(seen)-1] != rep.Total {
		t.Fatalf("progress never reached the grid size %d: %v", rep.Total, seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("progress not monotone: %v", seen)
		}
	}
}
