package rng

// laneWidth is the number of generators the lockstep kernel steps at
// once: 8 xorshift128+ states in four 256-bit registers.
const laneWidth = 8

// laneStates is one chunk of generators handed to the lockstep kernel,
// split by word: lane i's state is (s0[i], s1[i]).
type laneStates struct {
	s0, s1 [laneWidth]uint64
}

// minKernelLanes is the smallest chunk the AVX2 kernel takes. It
// always steps 8 states, so a lone sampler is faster in the scalar
// loop: 3.3-3.7 ns per pair against 6.0-7.5 through the kernel, while
// at 2 lanes the two paths tie.
const minKernelLanes = 2

// SkipLanes advances every sampler in gs past n Sample calls: each ends
// in exactly the state its own Skip(n) would leave, the zero-rejection
// loop and the spare phase included. The lane-batched acquisition path
// calls it with the noise samplers of one batch, which walk the same
// record list and so skip the same gaps from the same spare phase.
// Where the CPU has AVX2 the gap's pairs are stepped 8 generators at a
// time; elsewhere, and for samplers in different spare phases, each
// sampler runs its own loop.
func SkipLanes(gs []*Gaussian, n int) {
	if n <= 0 || len(gs) == 0 {
		return
	}
	spare := gs[0].hasSpare
	for _, g := range gs[1:] {
		if g.hasSpare != spare {
			for _, g := range gs {
				g.Skip(n)
			}
			return
		}
	}
	if spare {
		for _, g := range gs {
			g.hasSpare = false
		}
		n--
	}
	pairs := n / 2
	for lo := 0; lo < len(gs); lo += laneWidth {
		chunk := gs[lo:min(lo+laneWidth, len(gs))]
		if hasAVX2 && len(chunk) >= minKernelLanes {
			skipPairsLanes(chunk, pairs)
			continue
		}
		for _, g := range chunk {
			g.src.skipPairs(pairs)
		}
	}
	if n&1 == 1 {
		for _, g := range gs {
			g.Sample()
		}
	}
}

// skipPairsLanes steps at most laneWidth generators past pairs fresh
// Box–Muller pairs through the kernel. The kernel draws exactly two
// words per pair and flags a lane whose u draw the scalar loop would
// have rejected; such a lane restarts from its saved state and runs
// the scalar loop instead.
func skipPairsLanes(gs []*Gaussian, pairs int) {
	var st laneStates
	for i := range st.s0 {
		src := gs[0].src
		if i < len(gs) {
			src = gs[i].src
		}
		st.s0[i], st.s1[i] = src.s0, src.s1
	}
	saved := st
	rejected := skipPairsAVX2(&st, pairs)
	for i, g := range gs {
		if rejected&(1<<i) != 0 {
			g.src.s0, g.src.s1 = saved.s0[i], saved.s1[i]
			g.src.skipPairs(pairs)
			continue
		}
		g.src.s0, g.src.s1 = st.s0[i], st.s1[i]
	}
}

// skipPairs consumes the uniform draws of pairs fresh Box–Muller pairs:
// u, redrawn while it is zero, then v. Float64 is zero exactly when the
// top 53 bits of the raw draw are, so the rejection test runs on
// integers: the same draws are consumed, with no float conversion.
func (x *Xorshift) skipPairs(pairs int) {
	for ; pairs > 0; pairs-- {
		for x.Uint64()>>11 == 0 {
		}
		x.Uint64()
	}
}
