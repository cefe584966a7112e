package rng

import (
	"strconv"
	"testing"
)

// laneSamplers returns count samplers seeded from seed, each with a
// spare pending when spare is set, or, when mixed, every other one.
func laneSamplers(seed uint64, count int, spare, mixed bool) []*Gaussian {
	gs := make([]*Gaussian, count)
	for i := range gs {
		gs[i] = NewGaussian(seed + uint64(i)*0x9e3779b97f4a7c15)
		if spare != (mixed && i%2 == 1) {
			gs[i].Sample()
		}
	}
	return gs
}

// checkLanesMatchSkip runs SkipLanes(gs, n) and fails unless every
// sampler stands where its twin in ref stands after ref[i].Skip(n):
// same xorshift state, same spare, same next draw.
func checkLanesMatchSkip(t *testing.T, gs, ref []*Gaussian, n int) {
	t.Helper()
	SkipLanes(gs, n)
	for i, g := range gs {
		r := ref[i]
		r.Skip(n)
		if *g.src != *r.src || g.hasSpare != r.hasSpare || g.spare != r.spare {
			t.Fatalf("lane %d of %d, n=%d: SkipLanes left %+v spare %v/%v, Skip %+v spare %v/%v",
				i, len(gs), n, *g.src, g.hasSpare, g.spare, *r.src, r.hasSpare, r.spare)
		}
		if a, b := g.Sample(), r.Sample(); a != b {
			t.Fatalf("lane %d of %d, n=%d: next Sample %v after SkipLanes, %v after Skip", i, len(gs), n, a, b)
		}
	}
}

// FuzzSkipLanesMatchesSkip holds the lockstep skip to each sampler's
// own Skip: 1 to 17 lanes (a partial kernel chunk, one full chunk and
// a second chunk), n from 0 to 2 000, with no spare, a spare pending
// in every lane, or the two phases mixed.
func FuzzSkipLanesMatchesSkip(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint16(42), false, false)
	f.Add(uint64(2), uint8(8), uint16(1053), true, false)
	f.Add(uint64(3), uint8(16), uint16(2000), false, false)
	f.Add(uint64(4), uint8(2), uint16(43), true, false)
	f.Add(uint64(5), uint8(0), uint16(1), false, false)
	f.Add(uint64(6), uint8(4), uint16(46), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, lanes uint8, n uint16, spare, mixed bool) {
		count := 1 + int(lanes)%17
		skip := int(n) % 2001
		checkLanesMatchSkip(t, laneSamplers(seed, count, spare, mixed), laneSamplers(seed, count, spare, mixed), skip)
	})
}

// unstep returns the xorshift128+ state one draw before (s0, s1): the
// step sets s0' = s1 and s1' = t ^ s1 ^ (s1>>26) with t = a ^ (a<<23)
// followed by t ^= t>>17, both of which are invertible.
func unstep(s0, s1 uint64) (uint64, uint64) {
	b := s0
	t := s1 ^ b ^ (b >> 26)
	t ^= t>>17 ^ t>>34 ^ t>>51
	a := t ^ t<<23 ^ t<<46
	return a, b
}

// TestSkipLanesReplaysRejectedDraw builds a sampler whose u draw at
// pair k has its top 53 bits zero, so Skip draws u again. The kernel
// must flag that lane, and SkipLanes must leave it where Skip does,
// with its batch neighbours unaffected.
func TestSkipLanesReplaysRejectedDraw(t *testing.T) {
	for _, k := range []int{0, 5} {
		// After the u draw the state is (b, a) and the draw is a+b;
		// choose it as 3 (top 53 bits zero), then walk back 1+2k draws.
		b := uint64(0x0123456789abcdef)
		s0, s1 := b, 3-b
		for i := 0; i < 1+2*k; i++ {
			s0, s1 = unstep(s0, s1)
		}
		probe := &Xorshift{s0: s0, s1: s1}
		for i := 0; i < 2*k; i++ {
			probe.Uint64()
		}
		if u := probe.Uint64(); u>>11 != 0 {
			t.Fatalf("k=%d: constructed u draw %#x is not rejected", k, u)
		}
		rejecting := func() *Gaussian { return &Gaussian{src: &Xorshift{s0: s0, s1: s1}} }

		if hasAVX2 {
			var st laneStates
			for i := range st.s0 {
				st.s0[i], st.s1[i] = s0+uint64(i)+1, s1^uint64(i+1)
			}
			st.s0[5], st.s1[5] = s0, s1
			if got := skipPairsAVX2(&st, k+3); got != 1<<5 {
				t.Fatalf("k=%d: kernel flagged lanes %08b, want lane 5 alone", k, got)
			}
		}
		for _, lanes := range []int{1, 8, 9} {
			gs, ref := laneSamplers(11, lanes, false, false), laneSamplers(11, lanes, false, false)
			gs[lanes/2], ref[lanes/2] = rejecting(), rejecting()
			checkLanesMatchSkip(t, gs, ref, 2*k+7)
		}
	}
}

// BenchmarkSkipLanes prices the lockstep skip of 8 samplers over a
// gap of 21 pairs (a CPA record list's 42-cycle gap) and of 526 pairs
// (its 1 053-cycle prologue); BenchmarkGaussianSkip prices the same
// gaps through each sampler's own Skip. Both report ns per pair per
// sampler.
func BenchmarkSkipLanes(b *testing.B) {
	benchmarkSkip(b, func(gs []*Gaussian, n int) { SkipLanes(gs, n) })
}

func BenchmarkGaussianSkip(b *testing.B) {
	benchmarkSkip(b, func(gs []*Gaussian, n int) {
		for _, g := range gs {
			g.Skip(n)
		}
	})
}

func benchmarkSkip(b *testing.B, skip func([]*Gaussian, int)) {
	for _, pairs := range []int{21, 526} {
		b.Run("pairs="+strconv.Itoa(pairs), func(b *testing.B) {
			gs := laneSamplers(1, laneWidth, false, false)
			for i := 0; i < b.N; i++ {
				skip(gs, 2*pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs*laneWidth), "ns/pair")
		})
	}
}
