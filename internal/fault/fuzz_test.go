package fault

import (
	"bytes"
	"errors"
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/trace"
)

// addCodecSeeds seeds a fuzz corpus with a valid encoding plus its
// truncation, a payload bit flip and an empty input.
func addCodecSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
}

// FuzzTallyDecode feeds arbitrary bytes to the tally decoder: it must
// reject them with trace.ErrCodec or accept them, and an accepted input
// must re-marshal to identical bytes. Runs in the CI fuzz-short job.
func FuzzTallyDecode(f *testing.F) {
	valid, _ := (&Tally{Benign: 3, Detected: 5, Escaped: 1}).MarshalBinary()
	addCodecSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl Tally
		if err := tl.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, trace.ErrCodec) {
				t.Fatalf("decoder returned %T %v, not trace.ErrCodec", err, err)
			}
			return
		}
		again, err := tl.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted tally %+v re-marshals to different bytes (err %v)", tl, err)
		}
	})
}

// FuzzSweepReportDecode is FuzzTallyDecode for the full sweep report:
// tallies, grid bounds, opcode breakdown and escape inventory.
func FuzzSweepReportDecode(f *testing.F) {
	rep := &SweepReport{
		Tally:       Tally{Benign: 7, Detected: 4, Escaped: 2},
		Total:       13,
		WindowStart: 77488,
		WindowEnd:   78450,
		ByOp: []OpTally{
			{Op: coproc.OpMul, Tally: Tally{Benign: 5, Detected: 3, Escaped: 2}},
			{Op: coproc.OpCSwap, Tally: Tally{Benign: 2, Detected: 1}},
		},
		Escapes: []Injection{{Cycle: 77500, Reg: 2, Bit: 41}, {Cycle: 78001, Reg: 5, Bit: 162}},
	}
	valid, _ := rep.MarshalBinary()
	addCodecSeeds(f, valid)
	empty, _ := (&SweepReport{}).MarshalBinary()
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SweepReport
		if err := r.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, trace.ErrCodec) {
				t.Fatalf("decoder returned %T %v, not trace.ErrCodec", err, err)
			}
			return
		}
		again, err := r.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted report %+v re-marshals to different bytes (err %v)", r, err)
		}
	})
}
