package fault

import (
	"reflect"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
)

// TestSweepShardedDeterminismMatchesLegacy pins the sweep's reduction
// contract: because the fold is pure integer counting plus in-order
// escape-list concatenation over campaign.DefaultShards shards, the
// report is bit-identical to the one-worker fold's for every worker
// count — stronger than the floating-point campaigns, which agree
// across shard counts only to rounding.
func TestSweepShardedDeterminismMatchesLegacy(t *testing.T) {
	curve := ec.K163()
	tim := coproc.DefaultTiming()
	base := SweepConfig{
		FromIter: 0, ToIter: 0,
		CycleStride: 131, BitStride: 54,
		Seed: 23,
	}

	legacy := base
	legacy.Workers = 1
	ref, err := Sweep(curve, tim, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Runs() == 0 || ref.Detected == 0 {
		t.Fatalf("degenerate reference sweep: %+v", ref.Tally)
	}

	for _, workers := range []int{1, 2, 7} {
		c := base
		c.Workers = workers
		rep, err := Sweep(curve, tim, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("workers=%d report diverged from the one-worker fold:\n%+v\nvs\n%+v",
				workers, rep, ref)
		}
	}
}
