// Package rng provides the random-number machinery the paper lists
// among the non-algorithmic protocol primitives: a deterministic,
// seedable DRBG built on AES-128 in counter mode (used for protocol
// nonces, the randomized-projective-coordinates masks, the masked
// datapath's per-cycle mask refresh and the lossy link's fault and
// jitter draws), and a fast xorshift generator with a Box–Muller
// Gaussian sampler (used by the power model for measurement noise).
//
// Everything is deterministic given a seed so that every experiment in
// this module is exactly reproducible.
package rng

import (
	"encoding/binary"
	"math"

	"medsec/internal/lightcrypto"
)

// DRBG is a deterministic random-bit generator: AES-128 applied to an
// incrementing counter, keyed from the seed. It is not an
// SP 800-90A-certified construction, but it has the same shape
// (block cipher in counter mode) and is cryptographically strong for
// the purposes of this module's simulations.
//
// The generator refills 128 bytes (8 blocks) at a time through
// lightcrypto's KeyStream. The refill size does not change the stream:
// Uint64 never lets a word straddle two blocks, and Read runs on
// across block and refill boundaries.
type DRBG struct {
	aes *lightcrypto.AES
	ctr uint64 // counter of the first block after buf
	buf [drbgRefill]byte
	n   int // unread bytes remaining at the end of buf
}

// drbgRefill is the bytes one refill draws: two passes of KeyStream's
// 4-block interleave. Refills of 64 and 256 bytes were no faster in
// BenchmarkDRBGUint64.
const drbgRefill = 128

// NewDRBG creates a DRBG from a 64-bit seed. Distinct seeds yield
// independent streams.
func NewDRBG(seed uint64) *DRBG {
	var key [16]byte
	binary.BigEndian.PutUint64(key[:8], seed)
	binary.BigEndian.PutUint64(key[8:], seed^0x9e3779b97f4a7c15)
	a, err := lightcrypto.NewAES(key[:])
	if err != nil {
		panic(err) // impossible: key is always 16 bytes
	}
	return &DRBG{aes: a}
}

// Reseed resets the generator in place to the state NewDRBG(seed)
// would produce, without allocating. The campaign engine's per-worker
// scratch DRBGs re-seed once per trace; allocation-free re-seeding is
// what keeps the steady-state acquisition loop off the heap.
func (d *DRBG) Reseed(seed uint64) {
	var key [16]byte
	binary.BigEndian.PutUint64(key[:8], seed)
	binary.BigEndian.PutUint64(key[8:], seed^0x9e3779b97f4a7c15)
	if err := d.aes.Rekey(key[:]); err != nil {
		panic(err) // impossible: key is always 16 bytes
	}
	d.ctr = 0
	d.n = 0
}

func (d *DRBG) refill() {
	d.aes.KeyStream(d.buf[:], d.ctr)
	d.ctr += drbgRefill / lightcrypto.AESBlockSize
	d.n = drbgRefill
}

// Uint64 returns the next 64 uniform bits: the next 8 bytes of the
// current block, big-endian. A word never straddles two blocks: a
// block tail shorter than 8 bytes is discarded.
func (d *DRBG) Uint64() uint64 {
	if tail := d.n & (lightcrypto.AESBlockSize - 1); tail < 8 {
		d.n -= tail
		if d.n == 0 {
			d.refill()
		}
	}
	v := binary.BigEndian.Uint64(d.buf[drbgRefill-d.n:])
	d.n -= 8
	return v
}

// Read fills p with uniform bytes; it never fails. It takes every
// byte in order, across block and refill boundaries.
func (d *DRBG) Read(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if d.n == 0 {
			d.refill()
		}
		c := copy(p[i:], d.buf[drbgRefill-d.n:])
		d.n -= c
		i += c
	}
	return len(p), nil
}

// Intn returns a uniform integer in [0, n); n must be positive.
// Rejection sampling removes modulo bias.
func (d *DRBG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn requires positive n")
	}
	bound := uint64(n)
	limit := (^uint64(0) / bound) * bound
	for {
		v := d.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Xorshift is a fast xorshift128+ generator for bulk non-crypto
// randomness (power-model noise). Not for secrets.
type Xorshift struct {
	s0, s1 uint64
}

// NewXorshift seeds a generator; a zero seed is remapped to avoid the
// all-zero fixed point.
func NewXorshift(seed uint64) *Xorshift {
	x := &Xorshift{}
	x.Reseed(seed)
	return x
}

// Reseed resets the generator in place to the state NewXorshift(seed)
// would produce (allocation-free re-seeding for pooled scratch state).
func (x *Xorshift) Reseed(seed uint64) {
	x.s0, x.s1 = seed, seed^0x6a09e667f3bcc909
	if x.s0 == 0 && x.s1 == 0 {
		x.s1 = 1
	}
	// Warm up past any low-entropy seed structure.
	for i := 0; i < 8; i++ {
		x.Uint64()
	}
}

// Uint64 returns the next value of the xorshift128+ sequence.
func (x *Xorshift) Uint64() uint64 {
	a, b := x.s0, x.s1
	x.s0 = b
	a ^= a << 23
	a ^= a >> 17
	a ^= b ^ (b >> 26)
	x.s1 = a
	return a + b
}

// Float64 returns a uniform value in [0, 1).
func (x *Xorshift) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Gaussian draws from N(0, 1) using Box–Muller. The spare value is
// cached, so consecutive calls alternate between fresh and cached
// draws.
type Gaussian struct {
	src      *Xorshift
	spare    float64
	hasSpare bool
}

// NewGaussian creates a Gaussian sampler over a seeded xorshift source.
func NewGaussian(seed uint64) *Gaussian {
	return &Gaussian{src: NewXorshift(seed)}
}

// Reseed resets the sampler in place to the state NewGaussian(seed)
// would produce: same xorshift state, no cached spare. Allocation-free
// (the embedded source is reused).
func (g *Gaussian) Reseed(seed uint64) {
	if g.src == nil {
		g.src = NewXorshift(seed)
	} else {
		g.src.Reseed(seed)
	}
	g.spare = 0
	g.hasSpare = false
}

// Sample returns one N(0, 1) draw.
func (g *Gaussian) Sample() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	var u, v float64
	for {
		u = g.src.Float64()
		if u > 0 {
			break
		}
	}
	v = g.src.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	// Sincos shares one argument reduction between the pair. Both
	// results are bit-identical to separate Sin/Cos calls (the pure-Go
	// kernels evaluate the same polynomials on the same reduced
	// argument), so the emitted stream is unchanged.
	s, c := math.Sincos(2 * math.Pi * v)
	g.spare = r * s
	g.hasSpare = true
	return r * c
}

// Fill writes len(dst) consecutive Sample draws into dst, leaving the
// sampler in exactly the state len(dst) Sample calls would. It is the
// batch form of Sample for the lane-batched acquisition path: one call
// per block of cycles instead of one per cycle, with the Box–Muller
// pair loop kept branch-light. The arithmetic is the same expressions
// in the same order as Sample (including the u > 0 rejection loop and
// the cos-then-sin pair phase), so the emitted sequence is
// bit-identical (pinned by TestGaussianFillMatchesSample).
func (g *Gaussian) Fill(dst []float64) {
	i := 0
	if g.hasSpare && len(dst) > 0 {
		dst[0] = g.spare
		g.hasSpare = false
		i++
	}
	for ; i+1 < len(dst); i += 2 {
		var u float64
		for {
			u = g.src.Float64()
			if u > 0 {
				break
			}
		}
		v := g.src.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		s, c := math.Sincos(2 * math.Pi * v)
		dst[i] = r * c
		dst[i+1] = r * s
	}
	if i < len(dst) {
		dst[i] = g.Sample()
	}
}

// Skip advances the sampler past n Sample calls without computing the
// Gaussian values, leaving the generator in exactly the state n calls
// to Sample would: the same uniform draws are consumed from the
// underlying source (including the u > 0 rejection loop) and the spare
// cache ends in the same fresh/cached phase. Only the transcendental
// work (log, sqrt, sin, cos) is elided — a skipped cycle costs two
// xorshift draws per pair instead of a full Box–Muller evaluation.
// SkipLanes is its lockstep form over the samplers of a lane batch,
// which the measurement-noise pass (power.Samples) uses to skip the
// cycles a windowed or recorded trace does not keep.
func (g *Gaussian) Skip(n int) {
	if n <= 0 {
		return
	}
	if g.hasSpare {
		g.hasSpare = false
		n--
	}
	g.src.skipPairs(n / 2)
	if n&1 == 1 {
		// Odd remainder: a real draw, so the spare cache holds exactly
		// the value the next Sample call would return.
		g.Sample()
	}
}
