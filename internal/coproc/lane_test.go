package coproc

import (
	"strings"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// laneTestSeed derives a per-lane TRNG seed the way the sca layer
// derives per-trace device streams.
func laneTestSeed(l int) uint64 { return 42 ^ (uint64(l)+1)*0x9e3779b97f4a7c15 }

func laneTestKey(t *testing.T, l int) modn.Scalar {
	t.Helper()
	curve := ec.K163()
	// Mix fixed and per-lane random keys, like a TVLA campaign.
	if l%2 == 0 {
		return benchScalar
	}
	return curve.Order.Rand(rng.NewDRBG(uint64(1000 + l)).Uint64)
}

// cpuRegs reads a CPU's working register file.
func cpuRegs(cpu *CPU) [NumRegs]gf2m.Element {
	var r [NumRegs]gf2m.Element
	for i := range r {
		r[i] = cpu.Reg(i)
	}
	return r
}

// captureCPU runs one whole trace on the per-trace CPU (from snap when
// non-nil) and returns its event stream, final register file and cycle
// count.
func captureCPU(t *testing.T, p *Program, key modn.Scalar, seed uint64, snap *Snapshot) ([]CycleEvent, [NumRegs]gf2m.Element, int) {
	t.Helper()
	curve := ec.K163()
	cpu := NewCPU(DefaultTiming())
	cpu.Rand = rng.NewDRBG(seed).Uint64
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	var evs []CycleEvent
	cpu.Probe = func(ev *CycleEvent) { evs = append(evs, *ev) }
	var err error
	var n int
	if snap != nil {
		n, err = cpu.Resume(p, key, *snap)
	} else {
		n, err = cpu.Run(p, key)
	}
	if err != nil {
		t.Fatalf("cpu run: %v", err)
	}
	return evs, cpuRegs(cpu), n
}

func regsOf(lc *LaneCPU, l int) [NumRegs]gf2m.Element {
	var r [NumRegs]gf2m.Element
	for i := 0; i < NumRegs; i++ {
		r[i] = lc.Result(l, uint8(i))
	}
	return r
}

// runLanes executes the test traces (lane l: laneTestKey(l),
// laneTestSeed(l)) through a LaneCPU and returns the per-lane captured
// streams.
func runLanes(t *testing.T, lc *LaneCPU, p *Program, nLanes int, quiet, max int, snaps []*Snapshot) ([][]CycleEvent, int, error) {
	t.Helper()
	curve := ec.K163()
	lc.QuietCycles = quiet
	lc.MaxCycles = max
	streams := make([][]CycleEvent, nLanes)
	runs := make([]LaneRun, nLanes)
	for l := 0; l < nLanes; l++ {
		l := l
		runs[l] = LaneRun{
			Key:    laneTestKey(t, l),
			Rand:   rng.NewDRBG(laneTestSeed(l)).Uint64,
			Sink:   func(ev *CycleEvent) { streams[l] = append(streams[l], *ev) },
			Consts: OperandConstants(curve.Gx, curve.B, curve.Gy),
		}
		if snaps != nil {
			runs[l].Resume = snaps[l]
		}
	}
	n, err := lc.Run(p, runs)
	if err != nil && err != ErrStopped {
		t.Fatalf("lane run: %v", err)
	}
	return streams, n, err
}

func diffStreams(t *testing.T, label string, got, want []CycleEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d diverged:\n lane      %+v\n reference %+v", label, i, got[i], want[i])
		}
	}
}

// opcodePrograms builds one small program per ISA opcode (each also
// needs a few loads to set up non-trivial operand state).
func opcodePrograms() map[string]*Program {
	mk := func(instrs ...Instr) *Program { return &Program{Instrs: instrs, ResultX: 0} }
	ld := func(rd uint8, c uint8) Instr { return Instr{Op: OpLoadConst, Rd: rd, Ra: c, KeyBit: -1, Iteration: -1} }
	return map[string]*Program{
		"nop": mk(ld(0, ConstX), Instr{Op: OpNop, KeyBit: -1, Iteration: -1}),
		"add": mk(ld(0, ConstX), ld(1, ConstB), Instr{Op: OpAdd, Rd: 2, Ra: 0, Rb: 1, KeyBit: -1, Iteration: -1}),
		"move": mk(ld(0, ConstY), Instr{Op: OpMove, Rd: 3, Ra: 0, KeyBit: -1, Iteration: -1},
			Instr{Op: OpMove, Rd: RAM0, Ra: 3, KeyBit: -1, Iteration: -1}),
		"loadconst": mk(ld(0, ConstX), ld(1, ConstOne), ld(2, ConstZero)),
		"loadrnd": mk(Instr{Op: OpLoadRnd, Rd: 4, KeyBit: -1, Iteration: -1},
			Instr{Op: OpLoadRnd, Rd: 5, KeyBit: -1, Iteration: -1}),
		"cswap": mk(ld(0, ConstX), ld(1, ConstB),
			Instr{Op: OpCSwap, Rd: 0, Ra: 1, KeyBit: 161, Iteration: 0},
			Instr{Op: OpCSwap, Rd: 0, Ra: 1, KeyBit: 57, Iteration: 0}),
		"mul": mk(ld(0, ConstX), ld(1, ConstB), Instr{Op: OpMul, Rd: 2, Ra: 0, Rb: 1, KeyBit: -1, Iteration: -1}),
		"sqr": mk(ld(0, ConstY), Instr{Op: OpSqr, Rd: 1, Ra: 0, KeyBit: -1, Iteration: -1}),
	}
}

// TestLaneMatchesSerialPerOpcode pins the lane executor at several
// widths against the per-trace CPU for every ISA opcode: identical
// event streams (every field, every cycle) and identical final
// register files per lane, whatever the lane's position in the batch.
func TestLaneMatchesSerialPerOpcode(t *testing.T) {
	for name, p := range opcodePrograms() {
		for _, nLanes := range []int{1, 2, 3, 4, 8} {
			lc := NewLaneCPU(DefaultTiming())
			streams, laneN, _ := runLanes(t, lc, p, nLanes, 0, 0, nil)
			for l := 0; l < nLanes; l++ {
				want, wantRegs, serialN := captureCPU(t, p, laneTestKey(t, l), laneTestSeed(l), nil)
				diffStreams(t, name, streams[l], want)
				if laneN != serialN {
					t.Fatalf("%s: lane cycle count %d, CPU %d", name, laneN, serialN)
				}
				if got := regsOf(lc, l); got != wantRegs {
					t.Fatalf("%s lane %d/%d: register file diverged", name, l, nLanes)
				}
			}
		}
	}
}

// TestLanePointMulMatchesSerial pins full point multiplications (RPC
// on and off) at lane counts {1,3,8}: event streams, final cycle
// counts, and result registers all bit-identical to per-trace CPU
// runs — including lanes with mixed fixed/random scalars.
func TestLanePointMulMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full point multiplications")
	}
	for _, rpc := range []bool{false, true} {
		p := BuildLadderProgram(ProgramOptions{RPC: rpc, XOnly: true})
		for _, nLanes := range []int{1, 3, 8} {
			lc := NewLaneCPU(DefaultTiming())
			streams, laneN, _ := runLanes(t, lc, p, nLanes, 0, 0, nil)
			for l := 0; l < nLanes; l++ {
				want, wantRegs, serialN := captureCPU(t, p, laneTestKey(t, l), laneTestSeed(l), nil)
				diffStreams(t, "pointmul", streams[l], want)
				if laneN != serialN {
					t.Fatalf("rpc=%v: lane cycles %d CPU %d", rpc, laneN, serialN)
				}
				if got := regsOf(lc, l); got != wantRegs {
					t.Fatalf("rpc=%v lane %d/%d: result registers diverged", rpc, l, nLanes)
				}
			}
		}
	}
}

// windowedFixture is the acquisition configuration the campaigns use
// on the unprotected microcode: iterations 160..158 recorded, and the
// reference prefix snapshot (benchScalar, K-163 generator) that the
// fixed-key lanes resume from.
func windowedFixture(t *testing.T) (p *Program, start, end int, snap Snapshot) {
	t.Helper()
	p = BuildLadderProgram(ProgramOptions{RPC: false, XOnly: true})
	tim := DefaultTiming()
	start, end = p.IterationWindow(tim, 160, 158)
	nInstr, cycle, _ := p.PrefixBoundary(tim, start)
	if cycle == 0 {
		t.Fatal("expected a nonzero prefix boundary")
	}
	curve := ec.K163()
	ref := NewCPU(tim)
	ref.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	snap, err := ref.SnapshotPrefix(p, benchScalar, nInstr)
	if err != nil {
		t.Fatalf("SnapshotPrefix: %v", err)
	}
	return p, start, end, snap
}

// windowedSnaps fans the prefix snapshot out to the even (fixed-key)
// lanes of an nLanes batch; the random-key lanes replay the prefix.
func windowedSnaps(snap *Snapshot, nLanes int) []*Snapshot {
	snaps := make([]*Snapshot, nLanes)
	for l := range snaps {
		if l%2 == 0 {
			snaps[l] = snap
		}
	}
	return snaps
}

// TestLaneWindowedAcquisitionMatchesSerial pins the acquisition
// configuration the campaigns use: QuietCycles prologue + MaxCycles
// window, with a prefix snapshot fanned out to the usable lanes (the
// even, fixed-key ones) while the random-key lanes replay the quiet
// prefix — the exact mixed-resume shape of a TVLA batch. Each lane's
// window must equal the same slice of a whole evented run. Lane counts
// include 3 and 8 so non-dividing shapes are covered at the campaign
// layer's batch remainder.
func TestLaneWindowedAcquisitionMatchesSerial(t *testing.T) {
	p, start, end, snap := windowedFixture(t)
	for _, nLanes := range []int{1, 3, 8} {
		lc := NewLaneCPU(DefaultTiming())
		streams, _, laneErr := runLanes(t, lc, p, nLanes, start, end, windowedSnaps(&snap, nLanes))
		if laneErr != ErrStopped {
			t.Fatalf("lanes=%d: want ErrStopped at MaxCycles, got %v", nLanes, laneErr)
		}
		for l := 0; l < nLanes; l++ {
			full, _, _ := captureCPU(t, p, laneTestKey(t, l), laneTestSeed(l), nil)
			diffStreams(t, "windowed", streams[l], full[start:end])
		}
	}
}

// TestLaneMidMALUTruncation pins the budget-truncation semantics when
// MaxCycles lands inside a multiply: the lanes must emit events for
// exactly cycles [0, MaxCycles) and withhold the MALU writeback.
func TestLaneMidMALUTruncation(t *testing.T) {
	p := opcodePrograms()["mul"]
	tim := DefaultTiming()
	total := p.CycleCount(tim)
	for _, max := range truncationCuts(tim) {
		for _, nLanes := range []int{1, 3} {
			lc := NewLaneCPU(tim)
			streams, laneN, err := runLanes(t, lc, p, nLanes, 0, max, nil)
			if max < total && err != ErrStopped {
				t.Fatalf("max=%d: want ErrStopped, got %v", max, err)
			}
			if laneN != max {
				t.Fatalf("max=%d: lanes stopped at cycle %d", max, laneN)
			}
			for l := 0; l < nLanes; l++ {
				full, wantRegs, _ := captureCPU(t, p, laneTestKey(t, l), laneTestSeed(l), nil)
				diffStreams(t, "trunc", streams[l], full[:max])
				if max < total {
					wantRegs[2] = gf2m.Element{} // the MUL's destination, never written
				}
				if got := regsOf(lc, l); got != wantRegs {
					t.Fatalf("max=%d lane %d: register file diverged (writeback withheld?)", max, l)
				}
			}
		}
	}
}

// TestLaneResumePastQuietPrefix pins mid-program resumes: lanes that
// all start from the same snapshot past the quiet prefix run in
// lockstep from it and reproduce the whole run's suffix, while a batch
// that mixes such a start with a lane that would have to replay evented
// instructions is refused by name.
func TestLaneResumePastQuietPrefix(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	tim := DefaultTiming()
	mid, _ := p.IterationWindow(tim, 100, 100)
	curve := ec.K163()
	ref := NewCPU(tim)
	ref.Rand = rng.NewDRBG(laneTestSeed(0)).Uint64
	ref.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	snaps, _, err := ref.RunCheckpointed(p, laneTestKey(t, 0), func(_, cycle int) bool { return cycle == mid })
	if err != nil || len(snaps) != 1 {
		t.Fatalf("checkpoint at cycle %d: %d snapshots, err %v", mid, len(snaps), err)
	}
	full, wantRegs, _ := captureCPU(t, p, laneTestKey(t, 0), laneTestSeed(0), nil)

	// Lanes 0 and 2 carry the same key, TRNG seed and snapshot.
	lc := NewLaneCPU(tim)
	streams := make([][]CycleEvent, 2)
	runs := make([]LaneRun, 2)
	for i := range runs {
		i := i
		runs[i] = LaneRun{Key: laneTestKey(t, 0), Rand: rng.NewDRBG(laneTestSeed(0)).Uint64, Resume: &snaps[0],
			Sink: func(ev *CycleEvent) { streams[i] = append(streams[i], *ev) }}
	}
	if _, err := lc.Run(p, runs); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		diffStreams(t, "resume", streams[i], full[mid:])
		if regsOf(lc, i) != wantRegs {
			t.Fatalf("lane %d: resumed register file diverged", i)
		}
	}

	runs[1] = LaneRun{Key: laneTestKey(t, 0), Rand: rng.NewDRBG(laneTestSeed(0)).Uint64,
		Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}
	if _, err := lc.Run(p, runs); err == nil || !strings.Contains(err.Error(), "outside the quiet prefix") {
		t.Fatalf("mixed start past the quiet prefix: got %v", err)
	}
}

// TestLaneRunSteadyStateAllocs gates the steady-state batch path: after
// the first Run decoded the program and sized the lane bank, further
// Runs over the same program must not allocate.
func TestLaneRunSteadyStateAllocs(t *testing.T) {
	p := opcodePrograms()["mul"]
	curve := ec.K163()
	lc := NewLaneCPU(DefaultTiming())
	sink := func(ev *CycleEvent) {}
	runs := make([]LaneRun, 4)
	for l := range runs {
		runs[l] = LaneRun{Key: benchScalar, Sink: sink, Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}
	}
	if _, err := lc.Run(p, runs); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := lc.Run(p, runs); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state LaneCPU.Run allocates %.1f times per run, want 0", avg)
	}
}
