package sca

import (
	"errors"
	"sort"

	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/trace"
)

// LeakPoint is one cycle whose power depends significantly on the key,
// attributed back to the instruction executing at that cycle — the
// white-box methodology with which the paper's evaluation localized
// its residual SPA leak ("one of the causes of this SPA leakage might
// be that ... slight unbalances are still present in the layout").
type LeakPoint struct {
	Cycle     int
	TStat     float64
	InstrIdx  int
	Op        coproc.Op
	Iteration int
	KeyBit    int
}

// LeakMap is the per-cycle leakage assessment of a window, with every
// significant point attributed to its instruction.
type LeakMap struct {
	// Points holds the leaky cycles, strongest first.
	Points []LeakPoint
	// Threshold is the |t| significance bound used.
	Threshold float64
	// Samples is the number of cycles assessed.
	Samples int
	// MaxT is the largest |t| observed (even if below threshold).
	MaxT float64
}

// LeakageMap runs a fixed-vs-random-key t-test over the given ladder
// iteration window and attributes each significant cycle to the
// microcode instruction executing there. It runs TVLA's first-order
// fold leg — the campaign streams through the parallel engine into an
// online Welch accumulator, no trace set is retained, and a
// Target.Ckpt checkpoints it as it does TVLA.
func LeakageMap(t *Target, p ec.Point, nPerSet, firstIter, lastIter int, randKey func() modn.Scalar) (*LeakMap, error) {
	if nPerSet < 10 {
		return nil, errors.New("sca: leakage map needs at least 10 traces per set")
	}
	start, end := t.prog.IterationWindow(t.Timing, firstIter, lastIter)
	plan := t.planWindow(start, end)
	_, ts, err := tvlaFold[trace.OnlineStats](t, "welch", 2*nPerSet, 0, plan, t.fixedRandomPrepare(p, randKey))
	if err != nil {
		return nil, err
	}

	// Cycle -> instruction attribution from the static plan.
	spans := t.prog.Spans(t.Timing)
	m := &LeakMap{Threshold: TVLAThreshold, Samples: len(ts)}
	for i, v := range ts {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m.MaxT {
			m.MaxT = a
		}
		if a <= TVLAThreshold {
			continue
		}
		cycle := start + i
		sp := findSpan(spans, cycle)
		lp := LeakPoint{Cycle: cycle, TStat: v, InstrIdx: -1, Iteration: -1, KeyBit: -1}
		if sp != nil {
			lp.InstrIdx = sp.Index
			lp.Op = sp.Op
			lp.Iteration = sp.Iteration
			lp.KeyBit = sp.KeyBit
		}
		m.Points = append(m.Points, lp)
	}
	sort.Slice(m.Points, func(i, j int) bool {
		ai, aj := m.Points[i].TStat, m.Points[j].TStat
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		return ai > aj
	})
	return m, nil
}

func findSpan(spans []coproc.InstrSpan, cycle int) *coproc.InstrSpan {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case cycle < spans[mid].Start:
			hi = mid
		case cycle >= spans[mid].End:
			lo = mid + 1
		default:
			return &spans[mid]
		}
	}
	return nil
}

// ByOp aggregates the leaky cycles per opcode — the designer's view of
// *which circuit block* leaks.
func (m *LeakMap) ByOp() map[string]int {
	out := map[string]int{}
	for _, p := range m.Points {
		out[p.Op.String()]++
	}
	return out
}

// Leaks reports whether any point exceeded the threshold.
func (m *LeakMap) Leaks() bool { return len(m.Points) > 0 }
