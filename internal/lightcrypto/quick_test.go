package lightcrypto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) for the symmetric primitives.

func TestQuickCTRInvolution(t *testing.T) {
	f := func(k0 uint64, iv0 uint64, msg []byte) bool {
		var key, iv [16]byte
		binary.BigEndian.PutUint64(key[:8], k0)
		binary.BigEndian.PutUint64(iv[:8], iv0)
		a, err := NewAES(key[:])
		if err != nil {
			return false
		}
		ct, err := a.CTR(iv[:], msg)
		if err != nil {
			return false
		}
		pt, err := a.CTR(iv[:], ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSealOpenRoundTrip(t *testing.T) {
	f := func(k0 uint64, n0 uint64, msg []byte) bool {
		var key, nonce [16]byte
		binary.BigEndian.PutUint64(key[:8], k0)
		binary.BigEndian.PutUint64(nonce[:8], n0)
		a, err := NewAES(key[:])
		if err != nil {
			return false
		}
		sealed, err := a.Seal(nonce[:], msg)
		if err != nil {
			return false
		}
		got, err := a.Open(nonce[:], sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSealRejectsFlippedBit(t *testing.T) {
	f := func(k0 uint64, msg []byte, pos uint16) bool {
		var key, nonce [16]byte
		binary.BigEndian.PutUint64(key[:8], k0)
		a, err := NewAES(key[:])
		if err != nil {
			return false
		}
		sealed, err := a.Seal(nonce[:], msg)
		if err != nil {
			return false
		}
		i := int(pos) % len(sealed)
		sealed[i] ^= 1 << (pos % 8)
		_, err = a.Open(nonce[:], sealed)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSHA1MatchesStreaming(t *testing.T) {
	f := func(a, b, c []byte) bool {
		var d SHA1
		d.Write(a)
		d.Write(b)
		d.Write(c)
		joined := append(append(append([]byte{}, a...), b...), c...)
		want := SHA1Sum(joined)
		return bytes.Equal(d.Sum(nil), want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
