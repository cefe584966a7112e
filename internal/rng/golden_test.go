package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// goldenDRBGStream is a SHA-256 over the DRBG runs of
// TestDRBGGoldenStream, recorded from the byte-oriented AES-128 rounds
// (SubBytes, ShiftRows and MixColumns over a 16-byte state). Every mask
// refresh, RPC mask, nonce, link fault and fleet scalar in the module
// is drawn from this stream, so a change to it moves every golden built
// on top. Fix the code, never the constant.
const goldenDRBGStream = "d99a60844acdf2d575c47660e4c15a8ed6d5fe85c1e64a0a3b42a2684f9fdf70"

// putU64 folds one 64-bit value into the hasher, big-endian.
func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestDRBGGoldenStream pins the DRBG output stream byte for byte:
//   - 64 Uint64 draws for each of seeds 0, 1, 42 and 2^64-1;
//   - Reseed applied to a generator that has already been drawn from,
//     across whole blocks and a partial Read;
//   - an interleaved Read(5) / Uint64 / Intn(1000) run, which mixes
//     byte reads with word draws that discard a short block tail.
func TestDRBGGoldenStream(t *testing.T) {
	h := sha256.New()
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		d := NewDRBG(seed)
		for i := 0; i < 64; i++ {
			putU64(h, d.Uint64())
		}
	}

	used := NewDRBG(101)
	for i := 0; i < 13; i++ {
		putU64(h, used.Uint64())
	}
	var five [5]byte
	used.Read(five[:])
	h.Write(five[:])
	used.Reseed(0xfeedface)
	for i := 0; i < 64; i++ {
		putU64(h, used.Uint64())
	}

	mixed := NewDRBG(7)
	for i := 0; i < 48; i++ {
		mixed.Read(five[:])
		h.Write(five[:])
		putU64(h, mixed.Uint64())
		putU64(h, uint64(mixed.Intn(1000)))
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDRBGStream {
		t.Fatalf("DRBG stream changed:\n  got    %s\n  pinned %s", got, goldenDRBGStream)
	}
}

// goldenDRBGRefills is a SHA-256 over the runs of
// TestDRBGGoldenRefills, recorded from the generator that refilled one
// 16-byte block at a time. Fix the code, never the constant.
const goldenDRBGRefills = "080e7456e9587effa02ce78603064df0e23793e596b798641966d273dba272fc"

// TestDRBGGoldenRefills pins the stream across refill boundaries of any
// buffer size, which TestDRBGGoldenStream's short reads never cross.
// For each of seeds 3 and 2^63:
//   - 1 000 Uint64 draws;
//   - a Read of each length in refillReads, each followed by one
//     Uint64, so reads start and end at many offsets within a block
//     and the longer ones cross several blocks and 128-byte refills;
//   - a Reseed with the buffer part-read, then Read(200) and ten
//     Intn(1000).
func TestDRBGGoldenRefills(t *testing.T) {
	refillReads := []int{1, 7, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 300}
	h := sha256.New()
	for _, seed := range []uint64{3, 1 << 63} {
		d := NewDRBG(seed)
		for i := 0; i < 1000; i++ {
			putU64(h, d.Uint64())
		}
		for _, n := range refillReads {
			p := make([]byte, n)
			d.Read(p)
			h.Write(p)
			putU64(h, d.Uint64())
		}
		var three [3]byte
		d.Read(three[:])
		h.Write(three[:])
		d.Reseed(seed + 1)
		p := make([]byte, 200)
		d.Read(p)
		h.Write(p)
		for i := 0; i < 10; i++ {
			putU64(h, uint64(d.Intn(1000)))
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDRBGRefills {
		t.Fatalf("DRBG refill stream changed:\n  got    %s\n  pinned %s", got, goldenDRBGRefills)
	}
}

// goldenGaussianStreams is a SHA-256 over the runs of
// TestGaussianGoldenStreams, recorded from the Skip loop that stepped
// one generator at a time. The measurement noise of every simulated
// trace is drawn from this sampler, and a CPA or TVLA verdict rests on
// it, so a change here moves every trace golden built on top. Fix the
// code, never the constant.
const goldenGaussianStreams = "f7a862df7e41d21948fbf0f101797d76d77d059b1b01f4104a21805a7c10f8b6"

// putF64 folds the IEEE bits of one draw into the hasher.
func putF64(h hash.Hash, v float64) { putU64(h, math.Float64bits(v)) }

// dpaGap is the i-th gap of a record list in the shape of a CPA
// campaign's writeback cycles: mostly 42 unrecorded cycles, some 46
// and some back-to-back (0).
func dpaGap(i int) int {
	switch {
	case i%3 == 2:
		return 0
	case i%17 == 0:
		return 46
	default:
		return 42
	}
}

// TestGaussianGoldenStreams pins the Gaussian sampler bit for bit.
// For each seed:
//   - Fill runs of odd and even lengths, so the spare crosses both
//     phases between calls;
//   - skip-then-draw along a CPA record list: Skip(1053), then one
//     Sample after each of 89 gaps of 42, 46 and 0;
//   - skip-then-draw along odd gaps (1, 21, 43, 525) entered with a
//     spare pending, each followed by a Fill of 3;
//   - Skip(0) and even skips with a spare pending;
//   - the final xorshift state.
func TestGaussianGoldenStreams(t *testing.T) {
	h := sha256.New()
	for _, seed := range []uint64{0, 1, 0x9d2c5680, 1 << 63, ^uint64(0)} {
		g := NewGaussian(seed)
		for _, n := range []int{1, 2, 3, 8, 255, 256} {
			buf := make([]float64, n)
			g.Fill(buf)
			for _, v := range buf {
				putF64(h, v)
			}
		}

		g.Skip(1053)
		putF64(h, g.Sample())
		for i := 0; i < 89; i++ {
			g.Skip(dpaGap(i))
			putF64(h, g.Sample())
		}

		var three [3]float64
		for _, gap := range []int{1, 21, 43, 525} {
			putF64(h, g.Sample()) // leaves a spare pending
			g.Skip(gap)
			g.Fill(three[:])
			for _, v := range three {
				putF64(h, v)
			}
		}
		for _, gap := range []int{0, 2, 42, 526} {
			putF64(h, g.Sample())
			g.Skip(gap)
			putF64(h, g.Sample())
		}
		putU64(h, g.src.s0)
		putU64(h, g.src.s1)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenGaussianStreams {
		t.Fatalf("Gaussian streams changed:\n  got    %s\n  pinned %s", got, goldenGaussianStreams)
	}
}
