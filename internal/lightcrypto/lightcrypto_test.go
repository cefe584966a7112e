package lightcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
)

func TestAESFIPS197Vector(t *testing.T) {
	// FIPS-197 Appendix C.1.
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	want, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	a, err := NewAES(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	a.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("FIPS-197 vector failed: got %x want %x", got, want)
	}
}

func TestAESMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		key := make([]byte, 16)
		pt := make([]byte, 16)
		r.Read(key)
		r.Read(pt)
		ours, err := NewAES(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		want := make([]byte, 16)
		ours.Encrypt(got, pt)
		ref.Encrypt(want, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("encrypt mismatch for key=%x pt=%x", key, pt)
		}
	}
}

func TestAESKeyLengthValidation(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := NewAES(make([]byte, n)); err == nil {
			t.Fatalf("NewAES accepted %d-byte key", n)
		}
	}
}

func TestAESShortBlockPanics(t *testing.T) {
	a, _ := NewAES(make([]byte, 16))
	for _, f := range []func(){
		func() { a.Encrypt(make([]byte, 15), make([]byte, 16)) },
		func() { a.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { a.KeyStream(make([]byte, 16), 0) },
		func() { a.KeyStream(make([]byte, 65), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("short block did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCTRRoundTripAndInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	key := make([]byte, 16)
	r.Read(key)
	a, _ := NewAES(key)
	for _, n := range []int{0, 1, 15, 16, 17, 33, 100, 1000} {
		msg := make([]byte, n)
		r.Read(msg)
		iv := make([]byte, 16)
		r.Read(iv)
		ct, err := a.CTR(iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := a.CTR(iv, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("CTR round trip failed for n=%d", n)
		}
		if n >= 16 && bytes.Equal(ct[:16], msg[:16]) {
			t.Fatal("CTR produced identity transform")
		}
	}
	if _, err := a.CTR(make([]byte, 15), []byte("x")); err == nil {
		t.Fatal("short IV accepted")
	}
}

func TestCTRCounterIncrementAcrossBlocks(t *testing.T) {
	// IV near the counter wrap: blocks must still differ.
	key := make([]byte, 16)
	a, _ := NewAES(key)
	iv := bytes.Repeat([]byte{0xff}, 16)
	msg := make([]byte, 48)
	ct, err := a.CTR(iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct[:16], ct[16:32]) || bytes.Equal(ct[16:32], ct[32:48]) {
		t.Fatal("counter did not increment across wrap")
	}
}

func TestCBCMACDistinguishesMessages(t *testing.T) {
	key := make([]byte, 16)
	key[0] = 1
	a, _ := NewAES(key)
	m1 := a.CBCMAC([]byte("message one"))
	m2 := a.CBCMAC([]byte("message two"))
	if m1 == m2 {
		t.Fatal("MAC collision on distinct messages")
	}
	// Length-extension-shaped inputs must differ (prefix-free check).
	m3 := a.CBCMAC(make([]byte, 16))
	m4 := a.CBCMAC(make([]byte, 32))
	if m3 == m4 {
		t.Fatal("MAC ignores length")
	}
	// Deterministic.
	if a.CBCMAC([]byte("message one")) != m1 {
		t.Fatal("MAC not deterministic")
	}
}

func TestSealOpen(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	key := make([]byte, 16)
	r.Read(key)
	a, _ := NewAES(key)
	nonce := make([]byte, 16)
	r.Read(nonce)
	msg := []byte("heart rate 62 bpm, battery 81%")
	sealed, err := a.Seal(nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Open(nonce, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("Seal/Open round trip failed")
	}
	// Any single bit flip anywhere must be rejected.
	for i := 0; i < len(sealed); i += 7 {
		tampered := append([]byte{}, sealed...)
		tampered[i] ^= 0x40
		if _, err := a.Open(nonce, tampered); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	// Wrong nonce rejected.
	badNonce := append([]byte{}, nonce...)
	badNonce[0] ^= 1
	if _, err := a.Open(badNonce, sealed); err == nil {
		t.Fatal("wrong nonce accepted")
	}
	// Truncated input rejected.
	if _, err := a.Open(nonce, sealed[:10]); err == nil {
		t.Fatal("truncated sealed message accepted")
	}
}

func TestSHA1KnownVectors(t *testing.T) {
	vectors := map[string]string{
		"":    "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
	}
	for msg, wantHex := range vectors {
		got := SHA1Sum([]byte(msg))
		if hex.EncodeToString(got[:]) != wantHex {
			t.Fatalf("SHA1(%q) = %x, want %s", msg, got, wantHex)
		}
	}
}

func TestSHA1MatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		n := r.Intn(300)
		msg := make([]byte, n)
		r.Read(msg)
		got := SHA1Sum(msg)
		want := sha1.Sum(msg)
		if got != want {
			t.Fatalf("SHA1 mismatch for %d-byte message", n)
		}
	}
}

func TestSHA1StreamingEqualsOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	msg := make([]byte, 1000)
	r.Read(msg)
	var d SHA1
	for off := 0; off < len(msg); {
		n := 1 + r.Intn(97)
		if off+n > len(msg) {
			n = len(msg) - off
		}
		d.Write(msg[off : off+n])
		off += n
	}
	want := SHA1Sum(msg)
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("streaming digest differs from one-shot")
	}
	// Sum must not consume the state.
	first := d.Sum(nil)
	second := d.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum consumed the hash state")
	}
	d.Write([]byte("more"))
	if bytes.Equal(d.Sum(nil), first) {
		t.Fatal("Write after Sum had no effect")
	}
}

func TestSHA1BoundaryLengths(t *testing.T) {
	// Padding boundaries: 55, 56, 63, 64, 65 bytes.
	for _, n := range []int{55, 56, 57, 63, 64, 65, 119, 120, 128} {
		msg := bytes.Repeat([]byte{0xa5}, n)
		got := SHA1Sum(msg)
		want := sha1.Sum(msg)
		if got != want {
			t.Fatalf("SHA1 mismatch at boundary length %d", n)
		}
	}
}

func TestSboxInverseRelation(t *testing.T) {
	// The S-box is a permutation: every byte has one preimage.
	var seen [256]bool
	for i := 0; i < 256; i++ {
		if seen[sbox[i]] {
			t.Fatalf("sbox(%d) = %x repeats an earlier output", i, sbox[i])
		}
		seen[sbox[i]] = true
	}
	// Spot values from FIPS-197.
	if sbox[0x00] != 0x63 || sbox[0x01] != 0x7c || sbox[0x53] != 0xed {
		t.Fatalf("sbox generation wrong: %x %x %x", sbox[0], sbox[1], sbox[0x53])
	}
}

func BenchmarkAESEncrypt(b *testing.B) {
	a, _ := NewAES(make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		a.Encrypt(blk, blk)
	}
}

func BenchmarkSHA1(b *testing.B) {
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		SHA1Sum(msg)
	}
}
