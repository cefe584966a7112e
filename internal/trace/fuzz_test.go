package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzSetDecode feeds arbitrary bytes to the trace-set decoder — the
// decoder that reads a DPA checkpoint's retained traces. It must
// reject them with ErrCodec or accept them, and an accepted input must
// re-marshal to identical bytes. Each input is tried twice: as a whole
// frame, and as the payload of a well-formed KindSet frame so the
// payload parser is reached past the CRC. Runs in the CI fuzz-short
// job.
func FuzzSetDecode(f *testing.F) {
	set := &Set{}
	set.Add(Trace{Samples: []float64{1.5, math.NaN(), -3e-300}, StartCycle: 77488})
	set.Add(Trace{Samples: []float64{0, math.Copysign(0, -1), 7e300}, StartCycle: -1})
	valid, _ := set.MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(valid[frameHeaderLen : len(valid)-4]) // a bare payload
	empty, _ := (&Set{}).MarshalBinary()
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, EncodeFrame(KindSet, data)} {
			var s Set
			if err := s.UnmarshalBinary(in); err != nil {
				if !errors.Is(err, ErrCodec) {
					t.Fatalf("decoder returned %T %v, not ErrCodec", err, err)
				}
				continue
			}
			again, err := s.MarshalBinary()
			if err != nil || !bytes.Equal(again, in) {
				t.Fatalf("accepted set of %d traces re-marshals to different bytes (err %v)", s.Len(), err)
			}
		}
	})
}
