package link

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes to decodeFrame, the parser of
// every frame the radio hands the ARQ layer — and so of every frame an
// active attacker on the channel can forge. The decoder must refuse
// the input without returning any field, or accept a frame that
// encodeFrame rebuilds byte for byte from the decoded fields.
func FuzzFrameDecode(f *testing.F) {
	data := encodeFrame(typeData, 7, []byte("payload"))
	f.Add(data)
	f.Add(encodeFrame(typeAck, 255, nil))
	f.Add([]byte{})
	f.Add(data[:len(data)-1])
	flipped := append([]byte(nil), data...)
	flipped[5] ^= 0x04
	f.Add(flipped)
	long := append([]byte(nil), data...)
	long[3]++ // length field one past the payload
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		ftype, seq, payload, ok := decodeFrame(in)
		if !ok {
			if ftype != 0 || seq != 0 || payload != nil {
				t.Fatalf("refused frame returned fields (%#x, %d, %q)", ftype, seq, payload)
			}
			return
		}
		if again := encodeFrame(ftype, seq, payload); !bytes.Equal(again, in) {
			t.Fatalf("accepted frame (%#x, %d, %d-byte payload) re-encodes to different bytes", ftype, seq, len(payload))
		}
	})
}
