package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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
