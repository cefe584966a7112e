package trace

import (
	"bytes"
	"encoding"
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

// accumulatorCodec is the codec surface the TVLA and TVLA2 checkpoint
// blobs share.
type accumulatorCodec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// FuzzAccumulatorDecode feeds arbitrary bytes to the decoders of the
// streaming accumulators that TVLA and TVLA2 checkpoints store:
// OnlineStats, OnlineWelch, OnlineMoments and OnlineWelch2. The
// contract is FuzzSetDecode's: each decoder must reject an input with
// ErrCodec or accept it, and an accepted input must re-marshal to
// identical bytes. Every input is tried against every decoder, as a
// whole frame and as the payload of a well-formed frame of that
// decoder's kind. Runs in the CI fuzz-short job.
func FuzzAccumulatorDecode(f *testing.F) {
	codecs := []struct {
		kind  byte
		fresh func() accumulatorCodec
	}{
		{KindOnlineStats, func() accumulatorCodec { return &OnlineStats{} }},
		{KindOnlineWelch, func() accumulatorCodec { return &OnlineWelch{} }},
		{KindOnlineMoments, func() accumulatorCodec { return &OnlineMoments{} }},
		{KindOnlineWelch2, func() accumulatorCodec { return &OnlineWelch2{} }},
	}
	rows := [][]float64{{1.5, math.NaN(), -3e-300}, {0, math.Copysign(0, -1), 7e300}}
	stats, moments := &OnlineStats{}, &OnlineMoments{}
	welch, welch2 := &OnlineWelch{}, &OnlineWelch2{}
	for _, row := range rows {
		for _, err := range []error{stats.Add(row), moments.Add(row), welch.AddA(row), welch2.AddB(row)} {
			if err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := welch.AddB(rows[0]); err != nil {
		f.Fatal(err)
	}
	for _, acc := range []accumulatorCodec{stats, moments, welch, welch2, &OnlineStats{}, &OnlineWelch2{}} {
		valid, err := acc.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[frameHeaderLen : len(valid)-4]) // a bare payload
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			for _, in := range [][]byte{data, EncodeFrame(c.kind, data)} {
				acc := c.fresh()
				if err := acc.UnmarshalBinary(in); err != nil {
					if !errors.Is(err, ErrCodec) {
						t.Fatalf("kind %d decoder returned %T %v, not ErrCodec", c.kind, err, err)
					}
					continue
				}
				again, err := acc.MarshalBinary()
				if err != nil || !bytes.Equal(again, in) {
					t.Fatalf("kind %d: accepted %d bytes re-marshal to different bytes (err %v)", c.kind, len(in), err)
				}
			}
		}
	})
}
