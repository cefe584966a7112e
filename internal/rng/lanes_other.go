//go:build !amd64

package rng

// hasAVX2 is false off amd64: SkipLanes runs every sampler's own
// skip loop, and the kernel below is never called.
const hasAVX2 = false

func skipPairsAVX2(st *laneStates, pairs int) uint32 {
	panic("rng: no AVX2 kernel on this GOARCH")
}
