package ec

import (
	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// ladderB1CLMUL runs the LadderBits steps of the ladder over k on s
// in one call, for a curve with √b = 1 and x(P) = *x: the loop of
// ladder.steps with ladder.step and the swaps in assembly, the state
// held in *s (ladder_amd64.s).
//
//go:noescape
func ladderB1CLMUL(s *LadderState, x *gf2m.Element, k *modn.Scalar)

// run is ladder.steps, or on a curve with √b = 1 (K-163) and a CPU
// with PCLMULQDQ, ladderB1CLMUL, which reaches the same state.
func (l *ladder) run(s *LadderState, x *gf2m.Element, k *modn.Scalar) {
	if gf2m.HasCLMUL() && l.sqrtBIsOne {
		ladderB1CLMUL(s, x, k)
		return
	}
	l.steps(s, k)
}
