package fault

import (
	"fmt"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/ec"
)

// goldenSweepReport pins a small two-iteration sweep at a fixed seed —
// tallies, per-opcode breakdown and escape inventory — as recorded by
// the original per-trace serial interpreter, whose Probe flipped
// cpu.Regs directly. Every MALU phase (operand load, digit cycles,
// writeback) is hit, as are the ladder's MOVE and CSWAP cycles, so the
// fault hook of the lane interpreter is checked against an independent
// implementation. Fix the code, never the constant.
const goldenSweepReport = `sweep: 3312 injections over cycles [77488,78450): 1336 benign, 1976 detected, 0 escaped
  MUL        736 benign  1064 detected     0 escaped
  SQR        584 benign   880 detected     0 escaped
  MOVE         8 benign    16 detected     0 escaped
  CSWAP        8 benign    16 detected     0 escaped
escapes []`

// TestGoldenSweepReport pins the sweep's classification end to end.
func TestGoldenSweepReport(t *testing.T) {
	rep, err := Sweep(ec.K163(), coproc.DefaultTiming(), SweepConfig{
		FromIter: 1, ToIter: 0,
		CycleStride: 7, BitStride: 41,
		Seed: 2026,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s\nescapes %v", rep, rep.Escapes)
	if got != goldenSweepReport {
		t.Fatalf("sweep report changed:\n%s\npinned:\n%s", got, goldenSweepReport)
	}
}
