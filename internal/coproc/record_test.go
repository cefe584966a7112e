package coproc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/rng"
)

// recordedRun is one lane batch's observable outcome: the events each
// lane's sink saw, the final lane states (registers, RAM, masks) and
// each lane's next TRNG and mask draws, which show that both streams
// were consumed to the same point.
type recordedRun struct {
	events    [][]CycleEvent
	states    []recordedState
	nextRand  []uint64
	nextMasks []uint64
	err       error
}

// recordedState is a lane's final operand file and mask slots.
type recordedState struct {
	slots [numSlots]gf2m.Element
	masks [writableSlots]gf2m.Element
}

// runRecorded executes the ladder over nLanes test traces (lane l:
// laneTestKey(l), laneTestSeed(l), mask stream 7+l) with the given
// MaxCycles and record list (nil: the fully evented run).
func runRecorded(t *testing.T, p *Program, masked bool, nLanes, maxCycles int, record []int) recordedRun {
	t.Helper()
	curve := ec.K163()
	lc := NewLaneCPU(DefaultTiming())
	lc.Masked, lc.MaxCycles, lc.Record = masked, maxCycles, record
	out := recordedRun{events: make([][]CycleEvent, nLanes)}
	runs := make([]LaneRun, nLanes)
	rands := make([]*rng.DRBG, nLanes)
	masks := make([]*rng.DRBG, nLanes)
	for l := range runs {
		l := l
		rands[l] = rng.NewDRBG(laneTestSeed(l))
		masks[l] = rng.NewDRBG(uint64(7 + l))
		runs[l] = LaneRun{
			Key:      laneTestKey(t, l),
			Rand:     rands[l].Uint64,
			MaskRand: masks[l].Uint64,
			Sink:     func(ev *CycleEvent) { out.events[l] = append(out.events[l], *ev) },
			Consts:   OperandConstants(curve.Gx, curve.B, curve.Gy),
		}
	}
	_, out.err = lc.Run(p, runs)
	if out.err != nil && out.err != ErrStopped {
		t.Fatalf("lane run: %v", out.err)
	}
	for l := range runs {
		out.states = append(out.states, recordedState{lc.lanes[l].slots, lc.lanes[l].masks})
		out.nextRand = append(out.nextRand, rands[l].Uint64())
		out.nextMasks = append(out.nextMasks, masks[l].Uint64())
	}
	return out
}

// TestLaneRecordedMatchesEvented pins LaneCPU.Record against the fully
// evented run: for record lists holding writebacks, digit and
// operand-load cycles, CSWAP, ADD and MOVE cycles, seeded random
// cycles, cycles in an instruction straddling MaxCycles, and none at
// all, every lane delivers exactly the evented run's events at the
// recorded cycles (all fields), ends in the same registers, RAM and
// masks, and leaves its TRNG and mask streams at the same draw — on
// the plain and the masked datapath, at lane widths 1 and 3.
func TestLaneRecordedMatchesEvented(t *testing.T) {
	tim := DefaultTiming()
	p := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	spans := p.Spans(tim)
	_, stop := p.IterationWindow(tim, 160, 159)

	// Representative cycles of iteration 160's instructions.
	var mul, sqr, add, move, cswap InstrSpan
	for _, sp := range spans {
		if sp.Iteration != 160 {
			continue
		}
		switch {
		case sp.Op == OpMul && mul.End == 0:
			mul = sp
		case sp.Op == OpSqr && sqr.End == 0:
			sqr = sp
		case sp.Op == OpAdd && add.End == 0:
			add = sp
		case sp.Op == OpMove && move.End == 0:
			move = sp
		case sp.Op == OpCSwap && cswap.End == 0:
			cswap = sp
		}
	}
	writebacks := []int{mul.End - 1, sqr.End - 1}
	digits := []int{mul.Start + tim.MulOverhead, mul.Start + tim.MulOverhead + 7, sqr.End - 2}
	loads := []int{mul.Start, sqr.Start}
	singles := []int{cswap.Start, add.Start, move.Start}

	// The MUL after iteration 159's window straddles a stop placed 5
	// cycles into it; record cycles on both sides of the stop.
	var straddle InstrSpan
	for _, sp := range spans {
		if sp.Start >= stop && sp.Op == OpMul {
			straddle = sp
			break
		}
	}
	cut := straddle.Start + 5

	random := func(seed uint64, n, limit int) []int {
		d := rng.NewDRBG(seed)
		set := map[int]bool{}
		for len(set) < n {
			set[int(d.Uint64()%uint64(limit))] = true
		}
		out := make([]int, 0, n)
		for c := range set {
			out = append(out, c)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	total := p.CycleCount(tim)
	cases := []struct {
		name   string
		max    int
		record []int
	}{
		{"writebacks", 0, writebacks},
		{"digits-and-loads", 0, sorted(digits, loads)},
		{"cswap-add-move", 0, singles},
		{"mixed", 0, sorted(writebacks, digits, loads, singles)},
		{"random", 0, random(3, 40, total)},
		{"random-windowed", stop, random(4, 25, stop)},
		{"straddling-stop", cut, sorted(writebacks, []int{straddle.Start + 1, cut - 1, cut, straddle.End - 1})},
		{"straddling-stop-unrecorded", cut, writebacks},
		{"empty", 0, []int{}},
		{"empty-windowed", cut, []int{}},
	}
	for _, masked := range []bool{false, true} {
		for _, width := range []int{1, 3} {
			refs := map[int]recordedRun{}
			for _, tc := range cases {
				ref, ok := refs[tc.max]
				if !ok {
					ref = runRecorded(t, p, masked, width, tc.max, nil)
					refs[tc.max] = ref
				}
				got := runRecorded(t, p, masked, width, tc.max, tc.record)
				label := tc.name
				if masked {
					label += "/masked"
				}
				if got.err != ref.err {
					t.Fatalf("%s width %d: run ended with %v, evented run with %v", label, width, got.err, ref.err)
				}
				for l := 0; l < width; l++ {
					var want []CycleEvent
					for _, ev := range ref.events[l] {
						if slices.Contains(tc.record, ev.Cycle) {
							want = append(want, ev)
						}
					}
					diffStreams(t, fmt.Sprintf("%s width %d lane %d", label, width, l), got.events[l], want)
					if got.states[l] != ref.states[l] {
						t.Fatalf("%s width %d lane %d: final registers, RAM or masks differ from the evented run", label, width, l)
					}
					if got.nextRand[l] != ref.nextRand[l] || got.nextMasks[l] != ref.nextMasks[l] {
						t.Fatalf("%s width %d lane %d: TRNG or mask stream left at a different draw", label, width, l)
					}
				}
			}
		}
	}
}

// TestLaneRecordListMustAscend pins that Run refuses a record
// list that is not strictly ascending, naming the field.
func TestLaneRecordListMustAscend(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	curve := ec.K163()
	for _, rec := range [][]int{{5, 5}, {9, 3}, {1, 2, 2}} {
		lc := NewLaneCPU(DefaultTiming())
		lc.Record = rec
		_, err := lc.Run(p, []LaneRun{{Key: benchScalar, Rand: rng.NewDRBG(1).Uint64,
			Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}})
		if err == nil || !strings.Contains(err.Error(), "LaneCPU.Record") {
			t.Fatalf("Record %v: err = %v, want a refusal naming LaneCPU.Record", rec, err)
		}
	}
}
