//go:build !amd64

package ec

import (
	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// run is ladder.steps: there is no assembly ladder off amd64.
func (l *ladder) run(s *LadderState, x *gf2m.Element, k *modn.Scalar) {
	l.steps(s, k)
}
