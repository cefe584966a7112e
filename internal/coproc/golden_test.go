package coproc

import (
	"encoding/binary"
	"testing"

	"medsec/internal/gf2m"
)

// Interpreter pins. Each constant is a SHA-256 (eventHasher) over event
// streams and register files recorded by the original per-trace serial
// interpreter, before coproc.CPU became a width-1 view of LaneCPU. They
// carry the evidence the lane-vs-serial property tests used to hold, so
// the lane interpreter is still checked against an independent
// implementation after that implementation is gone. Fix the code, never
// the constants.
const (
	// goldenMaskedLadderHash: Boolean-masked (boolean1) RPC x-only
	// ladder on the K-163 generator, benchScalar, TRNG DRBG(42), mask
	// stream DRBG(7), followed by the final register file.
	goldenMaskedLadderHash = "d895ba0311994fd87ca0961ae95a8497f34419e6adec038947dc9733a8dda803"
	// goldenPlainLadderHash: unprotected (non-RPC) x-only ladder on the
	// K-163 generator, benchScalar, followed by the final register file.
	goldenPlainLadderHash = "104e7f644ba86637fb10ef5776717c338bd4894964d0e1631c2a76d7ffef2724"
	// goldenWindowedHash: the windowed acquisition of
	// TestLaneWindowedAcquisitionMatchesSerial — non-RPC x-only ladder,
	// iterations 160..158 recorded, quiet prologue, prefix snapshot
	// resumed on the even (fixed-key) lanes — for lanes 0..7 in order.
	goldenWindowedHash = "c97bc865c52475c438e4b1f760ca8a7d43e144f80f1ece5ac7988694df840782"
)

// goldenTruncationHashes pins TestLaneMidMALUTruncation's cut points
// (events then register file, lanes 0..2 in order), indexed like
// truncationCuts.
var goldenTruncationHashes = []string{
	"84ad54f72069596521a026a147a28f2d24e8d313abb4dbfd39f0ba3fc38c3aa1",
	"2e024928d8a5a24b9e5fe5e181eca7b23c9bbedc1f286abc6c132c1cfe245ea7",
	"58a9fa27ae30e56de360d6e481bdd9d140750adc042d8c171ca2703f002eb076",
	"060760c4d6a31819550f5eb9018724f07752a2047921032e4629a42910e30be6",
	"0affe8455b99f4c6a2b0030b6f3794257a77242a15fc392a08886cb862cecf3b",
}

// truncationCuts are the MaxCycles values of TestLaneMidMALUTruncation
// on the "mul" opcode program: during the operand load, at the first
// digit, mid-digit-loop, just before the writeback, and exactly at the
// instruction boundary.
func truncationCuts(tim Timing) []int {
	mulCycles := tim.InstrCycles(OpMul)
	return []int{3, 2 + tim.MulOverhead, 2 + mulCycles/2, 2 + mulCycles - 1, 2 + mulCycles}
}

// addEvents folds a captured event stream into the hasher.
func (e *eventHasher) addEvents(evs []CycleEvent) {
	for i := range evs {
		e.add(&evs[i])
	}
}

// addRegs folds a register file into the hasher, word by word.
func (e *eventHasher) addRegs(regs [NumRegs]gf2m.Element) {
	var buf [8]byte
	for _, r := range regs {
		for _, w := range r {
			binary.LittleEndian.PutUint64(buf[:], w)
			e.st.Write(buf[:])
		}
	}
}

func checkPin(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s changed:\n  got    %s\n  pinned %s", name, got, want)
	}
}

// TestGoldenMaskedLadderHash pins the masked datapath end to end,
// through the per-trace CPU.
func TestGoldenMaskedLadderHash(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	evs, regs, _ := captureMasked(t, p, benchScalar, 42, 7, nil)
	eh := newEventHasher()
	eh.addEvents(evs)
	eh.addRegs(regs)
	checkPin(t, "masked ladder hash", eh.sum(), goldenMaskedLadderHash)
}

// TestGoldenPlainLadderHash pins the unprotected microcode end to end,
// through the per-trace CPU.
func TestGoldenPlainLadderHash(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{XOnly: true})
	evs, regs, _ := captureCPU(t, p, benchScalar, 42, nil)
	eh := newEventHasher()
	eh.addEvents(evs)
	eh.addRegs(regs)
	checkPin(t, "plain ladder hash", eh.sum(), goldenPlainLadderHash)
}

// TestGoldenWindowedHash pins the campaign acquisition shape on one
// 8-lane batch.
func TestGoldenWindowedHash(t *testing.T) {
	p, start, end, snap := windowedFixture(t)
	streams, _, _ := runLanes(t, NewLaneCPU(DefaultTiming()), p, 8, start, end, windowedSnaps(&snap, 8))
	eh := newEventHasher()
	for _, evs := range streams {
		eh.addEvents(evs)
	}
	checkPin(t, "windowed acquisition hash", eh.sum(), goldenWindowedHash)
}

// TestGoldenTruncationHashes pins every mid-MALU cut point on one
// 3-lane batch.
func TestGoldenTruncationHashes(t *testing.T) {
	p := opcodePrograms()["mul"]
	for i, max := range truncationCuts(DefaultTiming()) {
		lc := NewLaneCPU(DefaultTiming())
		streams, _, _ := runLanes(t, lc, p, 3, 0, max, nil)
		eh := newEventHasher()
		for l, evs := range streams {
			eh.addEvents(evs)
			eh.addRegs(regsOf(lc, l))
		}
		checkPin(t, "truncation hash", eh.sum(), goldenTruncationHashes[i])
	}
}
