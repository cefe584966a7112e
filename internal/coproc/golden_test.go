package coproc

import (
	"encoding/binary"
	"fmt"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/rng"
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
	// iterations 160..158 recorded after a quiet prologue — for lanes
	// 0..7 in order. It was recorded with the even (fixed-key) lanes
	// resumed from a prefix snapshot; the quiet prologue alone
	// reproduces it.
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
	evs, regs, _ := captureMasked(t, p, benchScalar, 42, 7)
	eh := newEventHasher()
	eh.addEvents(evs)
	eh.addRegs(regs)
	checkPin(t, "masked ladder hash", eh.sum(), goldenMaskedLadderHash)
}

// TestGoldenPlainLadderHash pins the unprotected microcode end to end,
// through the per-trace CPU.
func TestGoldenPlainLadderHash(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{XOnly: true})
	evs, regs, _ := captureCPU(t, p, benchScalar, 42)
	eh := newEventHasher()
	eh.addEvents(evs)
	eh.addRegs(regs)
	checkPin(t, "plain ladder hash", eh.sum(), goldenPlainLadderHash)
}

// TestGoldenWindowedHash pins the campaign acquisition shape on one
// 8-lane batch.
func TestGoldenWindowedHash(t *testing.T) {
	p, start, end := windowedFixture()
	streams, _, _ := runLanes(t, NewLaneCPU(DefaultTiming()), p, 8, start, end)
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
		streams, _, _ := runLanes(t, lc, p, 3, 0, max)
		eh := newEventHasher()
		for l, evs := range streams {
			eh.addEvents(evs)
			eh.addRegs(regsOf(lc, l))
		}
		checkPin(t, "truncation hash", eh.sum(), goldenTruncationHashes[i])
	}
}

// maluGoldenDigitSizes are the digit sizes TestGoldenMALUDigitSizes
// pins: every d up to 5 (less than, one, and more than one nibble), 7
// (a full nibble and a partial one), the powers of two designlab's
// grids use, and the largest size the interpreter accepts.
var maluGoldenDigitSizes = []int{1, 2, 3, 4, 5, 7, 8, 16, 32, 61}

// goldenMALUHashes pins maluDigitHash at each of maluGoldenDigitSizes
// (same index): the plain datapath, then the masked one. They were
// recorded from the shift-table digit loop (shiftTableProduct) before
// the nibble table replaced it.
var goldenMALUHashes = [][2]string{
	{"27b2db5f5584934b29591826f3b16bf9115110588a24c2c802194d60ac171676", "5ea368ab952760a8a7e4f7203b1ef3bb926c18aea1ef6ae317f82b4cdfb18ffd"},
	{"d9bfb180dab4a0ea3cf689447e9be25ed71be41008ac3a93ce687352abbbb12b", "7b840f5ab7a4150e2be954302654fb34fcedb677cb8e6e3b452168e741c15ebb"},
	{"ac35351ecd89558e4ab56e6ecb451cca2d1e55ea86b2dd426cd89ac446fee7e0", "a14f41db1128f34332527f1b0fd86dce67f9098f3eed24926e207d01241a4c0c"},
	{"f818375fba8e594d615179bca66187355db9498d925df8d24af96687cdfdc661", "8be4810d98adff564f437869a3fdf4e0bcbac62cad2297b009d9b58826648b18"},
	{"acc28514065165e0665ca51ac41417e5b95aa8137a7b7fd5632be2b97294058d", "64487044a565e0570c476d704c7d4affb82d20fd680622fa0789b502b65e11a7"},
	{"ebe232363a40bbe96480faa62481cab2e35ba43b6063a03e0b05b35d86661671", "3b6cb5c0cf516c3573d06689acc654f1ad3d3d6a6cd165168a84e13211991e49"},
	{"d7c884b33e82386fe7a2f4ea69765a963c46f046d2fdbc19c4fe66946b226828", "bdcd84e445166ca3b83589056168514bd911c540d8b02be07e3c2772cdc374bc"},
	{"a2407e4be9afbd07f6560b51a5dfedec993161816549fafd2e9b924dff050298", "8786fc3f1fc47ef4238d5f0b60863d31ad0f38fb9ebcba106576c205b5832238"},
	{"810f679854146f2c8ef6ec8ecaec7b84a50bf21e9e57da2a1636d45774efd5af", "2cead2f0d9c764085452de60aabca07d9cc0454ed137a3baa8e5490bea161799"},
	{"66fab52cc215f1547008c2d53a3d6a8ae24ff1f3f58d797601138fd0c1703314", "7d40ab5b0874f0e9524139e49fd22f0581731020ee68362f359e9db9b3c066a3"},
}

// maluGoldenConsts returns lane l's constant ROM for the digit-size
// pins: random full-width operands on lanes 0..2, and on lane 3 the
// all-ones element as x and b (every digit, every nibble set) with the
// top coefficient alone as y.
func maluGoldenConsts(l int) [NumConsts]gf2m.Element {
	if l == 3 {
		ones := gf2m.FromWords(^uint64(0), ^uint64(0), ^uint64(0))
		return OperandConstants(ones, ones, gf2m.Zero().SetBit(gf2m.M-1, 1))
	}
	d := rng.NewDRBG(uint64(l) + 0xd161)
	el := func() gf2m.Element { return gf2m.FromWords(d.Uint64(), d.Uint64(), d.Uint64()) }
	return OperandConstants(el(), el(), el())
}

// maluDigitHash runs opcodePrograms' "mul" and "sqr" programs fully
// evented at digit size d over four lanes of maluGoldenConsts (mask
// stream DRBG(7) on every lane when masked) and hashes each lane's
// events, then its register file, program by program.
func maluDigitHash(t *testing.T, d int, masked bool) string {
	t.Helper()
	eh := newEventHasher()
	for _, name := range []string{"mul", "sqr"} {
		lc := NewLaneCPU(Timing{DigitSize: d, MulOverhead: 2, SingleCycle: 1})
		lc.Masked = masked
		streams := make([][]CycleEvent, 4)
		runs := make([]LaneRun, len(streams))
		for l := range runs {
			l := l
			runs[l] = LaneRun{
				Key:    benchScalar,
				Sink:   func(ev *CycleEvent) { streams[l] = append(streams[l], *ev) },
				Consts: maluGoldenConsts(l),
			}
			if masked {
				runs[l].MaskRand = rng.NewDRBG(7).Uint64
			}
		}
		if _, err := lc.Run(opcodePrograms()[name], runs); err != nil {
			t.Fatalf("d=%d %s: %v", d, name, err)
		}
		for l, evs := range streams {
			eh.addEvents(evs)
			eh.addRegs(regsOf(lc, l))
		}
	}
	return eh.sum()
}

// TestGoldenMALUDigitSizes pins the evented MUL and SQR streams, plain
// and masked, across digit sizes: the ladder pins above run the chip's
// d = 4 alone.
func TestGoldenMALUDigitSizes(t *testing.T) {
	for i, d := range maluGoldenDigitSizes {
		for m, masked := range []bool{false, true} {
			checkPin(t, fmt.Sprintf("MALU hash at d=%d masked=%v", d, masked),
				maluDigitHash(t, d, masked), goldenMALUHashes[i][m])
		}
	}
}
