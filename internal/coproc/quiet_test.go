package coproc

import (
	"errors"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/rng"
)

// suffixHashEvented runs the pinned golden computation (same fixture as
// TestGoldenTraceHash) through the full evented pipeline and hashes only
// the events in [q, maxCycles) — the reference the quiet-prologue fast
// path must reproduce bit for bit (maxCycles <= 0: to the end).
func suffixHashEvented(t *testing.T, q, maxCycles int) string {
	t.Helper()
	eh := newEventHasher()
	goldenRun(t, func(cpu *CPU) {
		cpu.Probe = func(ev *CycleEvent) {
			if ev.Cycle >= q && (maxCycles <= 0 || ev.Cycle < maxCycles) {
				eh.add(ev)
			}
		}
	})
	return eh.sum()
}

// quietHash runs the golden computation on a width-1 LaneCPU with the
// given QuietCycles and MaxCycles, hashing every event the sink sees
// and counting those delivered before q.
func quietHash(t *testing.T, q, maxCycles int) (string, int) {
	t.Helper()
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	lc := NewLaneCPU(DefaultTiming())
	lc.QuietCycles, lc.MaxCycles = q, maxCycles
	eh := newEventHasher()
	leaked := 0
	runs := []LaneRun{{Key: benchScalar, Rand: rng.NewDRBG(42).Uint64,
		Consts: OperandConstants(curve.Gx, curve.B, curve.Gy),
		Sink: func(ev *CycleEvent) {
			if ev.Cycle < q {
				leaked++
			}
			eh.add(ev)
		}}}
	_, err := lc.Run(prog, runs)
	if maxCycles > 0 {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("quiet windowed run: got err %v, want ErrStopped", err)
		}
	} else if err != nil {
		t.Fatalf("quiet Run: %v", err)
	}
	return eh.sum(), leaked
}

// TestQuietPrefixSuffixBitIdentical pins the QuietCycles contract: with
// the quiet prologue enabled, the event stream the sink sees from
// cycle q on is bit-identical to the full evented run's suffix, with
// and without MaxCycles bounding the window, and no event at all is
// delivered before q. The boundaries are span-aligned iteration-window
// starts, exactly what the SCA acquisition planner feeds in.
func TestQuietPrefixSuffixBitIdentical(t *testing.T) {
	tim := DefaultTiming()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	start162, _ := prog.IterationWindow(tim, 162, 0)
	start150, end150 := prog.IterationWindow(tim, 150, 147)
	start10, _ := prog.IterationWindow(tim, 10, 0)
	cases := []struct {
		name         string
		q, maxCycles int
	}{
		{"ladder-start", start162, 0},
		{"deep-window", start150, 0},
		{"deep-window-bounded", start150, end150},
		{"near-end", start10, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := suffixHashEvented(t, tc.q, tc.maxCycles)
			got, leaked := quietHash(t, tc.q, tc.maxCycles)
			if got != want {
				t.Fatalf("quiet suffix hash diverged from evented run\n  got  %s\n  want %s", got, want)
			}
			if leaked != 0 {
				t.Fatalf("quiet run delivered %d events before cycle %d", leaked, tc.q)
			}
		})
	}
}

// TestQuietFullRunMatchesEvented pins that quiet execution is
// architecturally exact: silencing the entire program (QuietCycles =
// total cycle count, or a CPU without a Probe) produces the same
// result and cycle count as the fully evented run under the same TRNG
// stream, for both the protected and the unprotected microcode.
func TestQuietFullRunMatchesEvented(t *testing.T) {
	curve := ec.K163()
	tim := DefaultTiming()
	d := rng.NewDRBG(31)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)
	for _, opt := range []ProgramOptions{{RPC: true, XOnly: true}, {XOnly: true}, {RPC: true}, {}} {
		prog := BuildLadderProgram(opt)
		run := func(probe Probe) (*CPU, int) {
			cpu := NewCPU(tim)
			cpu.Rand = rng.NewDRBG(99).Uint64
			cpu.SetOperandConstants(p.X, curve.B, p.Y)
			cpu.Probe = probe
			n, err := cpu.Run(prog, k)
			if err != nil {
				t.Fatal(err)
			}
			return cpu, n
		}
		ev, nEv := run(func(*CycleEvent) {})
		qt, nQt := run(nil)

		lc := NewLaneCPU(tim)
		lc.QuietCycles = prog.CycleCount(tim)
		called := false
		runs := []LaneRun{{Key: k, Rand: rng.NewDRBG(99).Uint64, Consts: OperandConstants(p.X, curve.B, p.Y),
			Sink: func(*CycleEvent) { called = true }}}
		nLane, err := lc.Run(prog, runs)
		if err != nil {
			t.Fatal(err)
		}
		if called {
			t.Fatalf("%+v: fully quiet run delivered events", opt)
		}
		if nEv != nQt || nEv != nLane {
			t.Fatalf("%+v: cycle counts differ: evented %d, quiet CPU %d, quiet lane %d", opt, nEv, nQt, nLane)
		}
		for _, r := range []uint8{prog.ResultX, prog.ResultY} {
			if !ev.Reg(int(r)).Equal(qt.Reg(int(r))) || !ev.Reg(int(r)).Equal(lc.Result(0, r)) {
				t.Fatalf("%+v: quiet run result diverged", opt)
			}
		}
	}
}

// TestPrefixBoundaryAndSnapshotPrefix pins the acquisition-prologue
// contract on the unprotected (TRNG-free) microcode: PrefixBoundary
// reaches a span-aligned limit exactly, reports the CSWAP key bits the
// prefix consults, and a SnapshotPrefix + Resume reproduces the full
// run's suffix — events, result and cycle count — bit for bit.
func TestPrefixBoundaryAndSnapshotPrefix(t *testing.T) {
	curve := ec.K163()
	tim := DefaultTiming()
	prog := BuildLadderProgram(ProgramOptions{XOnly: true})
	d := rng.NewDRBG(17)
	k := curve.Order.RandNonZero(d.Uint64)
	p := curve.RandomPoint(d.Uint64)

	limit, _ := prog.IterationWindow(tim, 156, 153)
	nInstr, cycle, keyBits := prog.PrefixBoundary(tim, limit)
	if cycle != limit {
		t.Fatalf("span-aligned limit %d not reached exactly: boundary cycle %d", limit, cycle)
	}
	if nInstr <= 0 || nInstr >= len(prog.Instrs) {
		t.Fatalf("degenerate prefix: %d instructions", nInstr)
	}
	// keyBits must be exactly the CSWAP key bits of the spans before the
	// boundary, in execution order.
	var want []int
	for _, sp := range prog.Spans(tim) {
		if sp.Index >= nInstr {
			break
		}
		if sp.Op == OpCSwap && sp.KeyBit >= 0 {
			want = append(want, sp.KeyBit)
		}
	}
	if len(want) == 0 {
		t.Fatal("prefix through iteration 157 consults no key bits — window too shallow for the test")
	}
	if len(keyBits) != len(want) {
		t.Fatalf("keyBits = %v, want %v", keyBits, want)
	}
	for i := range want {
		if keyBits[i] != want[i] {
			t.Fatalf("keyBits = %v, want %v", keyBits, want)
		}
	}

	// Reference full run.
	type ev struct {
		Cycle, Instr int
		Op           Op
		WriteHD      int
	}
	ref := NewCPU(tim)
	ref.SetOperandConstants(p.X, curve.B, p.Y)
	var refEvents []ev
	ref.Probe = func(e *CycleEvent) {
		refEvents = append(refEvents, ev{e.Cycle, e.InstrIndex, e.Op, e.WriteHD})
	}
	total, err := ref.Run(prog, k)
	if err != nil {
		t.Fatal(err)
	}

	// Prologue snapshot once, then resume.
	pre := NewCPU(tim)
	pre.SetOperandConstants(p.X, curve.B, p.Y)
	snap, err := pre.SnapshotPrefix(prog, k, nInstr)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Instr != nInstr || snap.Cycle != cycle {
		t.Fatalf("snapshot at (%d, %d), want (%d, %d)", snap.Instr, snap.Cycle, nInstr, cycle)
	}
	cpu := NewCPU(tim)
	cpu.SetOperandConstants(p.X, curve.B, p.Y)
	var got []ev
	cpu.Probe = func(e *CycleEvent) {
		got = append(got, ev{e.Cycle, e.InstrIndex, e.Op, e.WriteHD})
	}
	n, err := cpu.Resume(prog, k, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("resume ended at cycle %d, want %d", n, total)
	}
	if !cpu.ResultX(prog).Equal(ref.ResultX(prog)) || !cpu.ResultY(prog).Equal(ref.ResultY(prog)) {
		t.Fatal("resumed result diverged from full run")
	}
	wantEv := refEvents[cycle:]
	if len(got) != len(wantEv) {
		t.Fatalf("resume saw %d events, want %d", len(got), len(wantEv))
	}
	for i := range got {
		if got[i] != wantEv[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], wantEv[i])
		}
	}
}

// TestPrefixBoundaryStopsAtTRNG pins that the boundary never crosses an
// OpLoadRnd: on the RPC microcode (whose mask loads are trace-dependent)
// the longest checkpointable prefix ends at the first TRNG read, no
// matter how deep the requested limit is.
func TestPrefixBoundaryStopsAtTRNG(t *testing.T) {
	tim := DefaultTiming()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	nInstr, cycle, _ := prog.PrefixBoundary(tim, prog.CycleCount(tim))
	spans := prog.Spans(tim)
	firstRnd := -1
	for _, sp := range spans {
		if sp.Op == OpLoadRnd {
			firstRnd = sp.Index
			break
		}
	}
	if firstRnd < 0 {
		t.Fatal("RPC program without OpLoadRnd")
	}
	if nInstr != firstRnd {
		t.Fatalf("boundary %d, want first OpLoadRnd at %d", nInstr, firstRnd)
	}
	if cycle != spans[firstRnd].Start {
		t.Fatalf("boundary cycle %d, want %d", cycle, spans[firstRnd].Start)
	}
	for _, sp := range spans[:nInstr] {
		if sp.Op == OpLoadRnd {
			t.Fatalf("prefix contains OpLoadRnd at instruction %d", sp.Index)
		}
	}
}
