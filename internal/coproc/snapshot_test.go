package coproc

import (
	"strings"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/rng"
)

// TestResumeReproducesSuffix pins the checkpoint/resume contract: a
// run resumed from any snapshot must reproduce the remainder of the
// full run bit-identically — final register file, cycle count, and the
// per-cycle event stream the probe sees — including randomized (RPC)
// programs, where the TRNG stream is fast-forwarded by RandDraws.
func TestResumeReproducesSuffix(t *testing.T) {
	curve := ec.K163()
	tim := DefaultTiming()
	prog := BuildLadderProgram(ProgramOptions{RPC: true})
	d := rng.NewDRBG(11)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	const trngSeed = 77

	type ev struct {
		Cycle, Instr int
		Op           Op
		WriteHD      int
	}

	// Full reference run, checkpointing every 40th instruction and
	// recording the event stream.
	ref := NewCPU(tim)
	ref.Rand = rng.NewDRBG(trngSeed).Uint64
	ref.SetOperandConstants(p.X, curve.B, p.Y)
	var refEvents []ev
	ref.Probe = func(e *CycleEvent) {
		refEvents = append(refEvents, ev{e.Cycle, e.InstrIndex, e.Op, e.WriteHD})
	}
	snaps, total, err := ref.RunCheckpointed(prog, k, func(idx, cycle int) bool { return idx%40 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 10 {
		t.Fatalf("only %d checkpoints captured", len(snaps))
	}
	wantX, wantY := ref.ResultX(prog), ref.ResultY(prog)

	for _, si := range []int{0, 1, len(snaps) / 2, len(snaps) - 1} {
		snap := snaps[si]
		cpu := NewCPU(tim)
		cpu.Rand = rng.NewDRBG(trngSeed).Uint64 // same stream, fast-forwarded by Resume
		cpu.SetOperandConstants(p.X, curve.B, p.Y)
		var got []ev
		cpu.Probe = func(e *CycleEvent) {
			got = append(got, ev{e.Cycle, e.InstrIndex, e.Op, e.WriteHD})
		}
		n, err := cpu.Resume(prog, k, snap)
		if err != nil {
			t.Fatalf("resume at snap %d: %v", si, err)
		}
		if n != total {
			t.Fatalf("resume at snap %d ended at cycle %d, want %d", si, n, total)
		}
		if !cpu.ResultX(prog).Equal(wantX) || !cpu.ResultY(prog).Equal(wantY) {
			t.Fatalf("resume at snap %d: result diverged from full run", si)
		}
		want := refEvents[snap.Cycle:]
		if len(got) != len(want) {
			t.Fatalf("resume at snap %d: %d events, want %d", si, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("resume at snap %d: event %d = %+v, want %+v", si, i, got[i], want[i])
			}
		}
	}

	// Out-of-range snapshots and missing TRNG are rejected.
	bad := snaps[1]
	bad.Instr = len(prog.Instrs) + 1
	cpu := NewCPU(tim)
	cpu.Rand = rng.NewDRBG(trngSeed).Uint64
	if _, err := cpu.Resume(prog, k, bad); err == nil {
		t.Fatal("out-of-range snapshot accepted")
	}
	cpu2 := NewCPU(tim)
	if _, err := cpu2.Resume(prog, k, snaps[len(snaps)-1]); err == nil {
		t.Fatal("randomized resume without TRNG accepted")
	}
}

// TestRunCheckpointedMatchesRun ensures checkpoint capture does not
// perturb execution: same result and cycle count as a plain Run.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	curve := ec.K163()
	tim := DefaultTiming()
	prog := BuildLadderProgram(ProgramOptions{RPC: true})
	d := rng.NewDRBG(12)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)

	a := NewCPU(tim)
	a.Rand = rng.NewDRBG(5).Uint64
	a.SetOperandConstants(p.X, curve.B, p.Y)
	nA, err := a.Run(prog, k)
	if err != nil {
		t.Fatal(err)
	}

	b := NewCPU(tim)
	b.Rand = rng.NewDRBG(5).Uint64
	b.SetOperandConstants(p.X, curve.B, p.Y)
	snaps, nB, err := b.RunCheckpointed(prog, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nA != nB {
		t.Fatalf("cycle counts differ: %d vs %d", nA, nB)
	}
	if len(snaps) != len(prog.Instrs) {
		t.Fatalf("keep=nil captured %d snapshots, want one per instruction (%d)", len(snaps), len(prog.Instrs))
	}
	if !a.ResultX(prog).Equal(b.ResultX(prog)) || !a.ResultY(prog).Equal(b.ResultY(prog)) {
		t.Fatal("checkpointed run diverged from plain run")
	}
	// Snapshot cycle fields are strictly increasing instruction starts.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Cycle <= snaps[i-1].Cycle || snaps[i].Instr != i {
			t.Fatalf("snapshot %d malformed: %+v", i, snaps[i])
		}
	}
}

// TestResumeRefusesForeignTimingSnapshot pins the snapshot/timing
// check: a snapshot's Cycle must be the static start cycle of its
// instruction under the resuming Timing. A snapshot taken at d = 4 and
// resumed at d = 2 would otherwise number its cycles (and, masked,
// fast-forward its mask stream) for the wrong schedule, so it is
// refused by name on every resume path; the same snapshot under its
// own Timing is accepted.
func TestResumeRefusesForeignTimingSnapshot(t *testing.T) {
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	d4 := DefaultTiming()
	d2 := d4
	d2.DigitSize = 2
	take := func(masked bool) Snapshot {
		ref := NewCPU(d4)
		ref.Rand = rng.NewDRBG(3).Uint64
		ref.Masked = masked
		ref.MaskRand = rng.NewDRBG(4).Uint64
		ref.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
		snaps, _, err := ref.RunCheckpointed(prog, benchScalar, func(idx, _ int) bool { return idx == 40 })
		if err != nil || len(snaps) != 1 {
			t.Fatalf("checkpoint: %d snapshots, err %v", len(snaps), err)
		}
		return snaps[0]
	}
	resumeCPU := func(tim Timing, masked bool, snap Snapshot) error {
		cpu := NewCPU(tim)
		cpu.Rand = rng.NewDRBG(3).Uint64
		cpu.Masked = masked
		cpu.MaskRand = rng.NewDRBG(4).Uint64
		cpu.Probe = func(*CycleEvent) {}
		_, err := cpu.Resume(prog, benchScalar, snap)
		return err
	}
	resumeLane := func(tim Timing, masked bool, snap Snapshot) error {
		lc := NewLaneCPU(tim)
		lc.Masked = masked
		_, err := lc.Run(prog, []LaneRun{{Key: benchScalar, Rand: rng.NewDRBG(3).Uint64,
			MaskRand: rng.NewDRBG(4).Uint64, Resume: &snap}})
		return err
	}
	for _, tc := range []struct {
		name    string
		tim     Timing
		masked  bool
		resume  func(Timing, bool, Snapshot) error
		refused bool
	}{
		{"cpu-d4-under-d2", d2, false, resumeCPU, true},
		{"cpu-masked-d4-under-d2", d2, true, resumeCPU, true},
		{"lane-d4-under-d2", d2, false, resumeLane, true},
		{"lane-masked-d4-under-d2", d2, true, resumeLane, true},
		{"cpu-d4-under-d4", d4, false, resumeCPU, false},
		{"lane-masked-d4-under-d4", d4, true, resumeLane, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.resume(tc.tim, tc.masked, take(tc.masked))
			if !tc.refused {
				if err != nil {
					t.Fatalf("own-Timing resume refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "snapshot Cycle") {
				t.Fatalf("got %v, want a refusal naming the snapshot Cycle", err)
			}
		})
	}
}
