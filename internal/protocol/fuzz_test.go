package protocol

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeHybrid feeds arbitrary bytes to DecodeHybrid, the parser of
// the sealed uploads a server receives over the radio. The decoder
// must refuse the input with a named hybrid-ciphertext error, or
// accept a ciphertext that EncodeHybrid flattens back to the identical
// bytes.
func FuzzDecodeHybrid(f *testing.F) {
	valid, err := EncodeHybrid(&HybridCiphertext{
		Ephemeral: bytes.Repeat([]byte{0x03}, 22),
		Sealed:    []byte("sealed telemetry and its tag"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 9, 1})
	f.Add([]byte{0, 0, 1, 2})
	f.Add(valid[:23]) // ephemeral only, nothing sealed
	f.Add(valid[:10])
	f.Fuzz(func(t *testing.T, in []byte) {
		ct, err := DecodeHybrid(in)
		if err != nil {
			if ct != nil || !strings.HasPrefix(err.Error(), "protocol: hybrid ciphertext") {
				t.Fatalf("refusal returned %v with error %q", ct, err)
			}
			return
		}
		again, err := EncodeHybrid(ct)
		if err != nil || !bytes.Equal(again, in) {
			t.Fatalf("accepted %d-byte ciphertext re-encodes to different bytes (err %v)", len(in), err)
		}
	})
}
