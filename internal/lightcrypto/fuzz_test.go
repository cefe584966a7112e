package lightcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/sha1"
	"testing"
)

// FuzzSHA1AgainstStdlib differentially fuzzes the from-scratch SHA-1
// against crypto/sha1.
func FuzzSHA1AgainstStdlib(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("abc"))
	f.Add(bytes.Repeat([]byte{0x61}, 120))
	f.Fuzz(func(t *testing.T, msg []byte) {
		got := SHA1Sum(msg)
		want := sha1.Sum(msg)
		if got != want {
			t.Fatalf("SHA1 mismatch for %d-byte input", len(msg))
		}
	})
}

// FuzzAESAgainstStdlib differentially fuzzes the table-driven AES-128
// against crypto/aes. The inputs are zero-padded or truncated to one
// 16-byte key and one 16-byte block. Encrypt must match the stdlib,
// encrypting in place (dst and src the same slice) must give the same
// bytes, and Decrypt must invert it.
func FuzzAESAgainstStdlib(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"),
		[]byte("\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"))
	f.Add(bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0xff}, 16))
	f.Fuzz(func(t *testing.T, keyIn, blockIn []byte) {
		var key, block [16]byte
		copy(key[:], keyIn)
		copy(block[:], blockIn)
		ours, err := NewAES(key[:])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var got, want [16]byte
		ours.Encrypt(got[:], block[:])
		ref.Encrypt(want[:], block[:])
		if got != want {
			t.Fatalf("key %x block %x: Encrypt %x, crypto/aes %x", key, block, got, want)
		}
		inPlace := block
		ours.Encrypt(inPlace[:], inPlace[:])
		if inPlace != want {
			t.Fatalf("key %x block %x: in-place Encrypt %x, want %x", key, block, inPlace, want)
		}
		var back [16]byte
		ours.Decrypt(back[:], got[:])
		if back != block {
			t.Fatalf("key %x block %x: Decrypt(Encrypt) = %x", key, block, back)
		}
	})
}

// FuzzOpenNeverAcceptsGarbage: Open on arbitrary ciphertext must
// either fail or (for the unmodified sealed message) return the
// original plaintext; flipped bytes must always be rejected.
func FuzzOpenNeverAcceptsGarbage(f *testing.F) {
	f.Add([]byte("payload"), uint8(0))
	f.Add([]byte(""), uint8(3))
	f.Fuzz(func(t *testing.T, msg []byte, flip uint8) {
		key := make([]byte, 16)
		key[0] = 7
		a, err := NewAES(key)
		if err != nil {
			t.Fatal(err)
		}
		nonce := make([]byte, 16)
		sealed, err := a.Seal(nonce, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Open(nonce, sealed)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatal("honest seal did not open")
		}
		tampered := append([]byte{}, sealed...)
		tampered[int(flip)%len(tampered)] ^= 0x80
		if _, err := a.Open(nonce, tampered); err == nil {
			t.Fatal("tampered message accepted")
		}
	})
}
