package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// Codec tests: encode → decode must round-trip every accumulator bit
// for bit (checkpoint/resume rests on it), and the decoder must reject
// every corruption — truncation, any single bit flip, version bumps,
// kind confusion, trailing garbage — with an error wrapping ErrCodec,
// never a panic and never a silently wrong accumulator.

// marshaler is the slice of encoding.BinaryMarshaler/Unmarshaler the
// codec tests drive generically.
type marshaler interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// The stats stream includes a NaN and a signed zero so the
// "bit-for-bit" claim is tested where a naive == comparison would lie.
func populatedStats(t *testing.T) *OnlineStats {
	t.Helper()
	o := NewOnlineStats()
	for _, s := range [][]float64{
		{1.5, math.Copysign(0, -1), 3e-300},
		{-2.25, math.NaN(), 7e300},
		{0.1, 4, -5},
	} {
		if err := o.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func populatedWelch(t *testing.T) *OnlineWelch {
	t.Helper()
	w := NewOnlineWelch()
	x := xorshift64(0xC0DEC)
	for i := 0; i < 9; i++ {
		s := []float64{x.float(), x.float() * 1e9, x.float() * 1e-9}
		var err error
		if i%2 == 0 {
			err = w.AddA(s)
		} else {
			err = w.AddB(s)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func populatedSet(t *testing.T) *Set {
	t.Helper()
	x := xorshift64(0x5E7)
	return randomSet(&x, 5, 6)
}

// roundTrip encodes src, decodes into dst, and returns both encodings
// (they must be identical: a decoded accumulator re-encodes to the
// same bytes, the definition of lossless).
func roundTrip(t *testing.T, name string, src, dst marshaler) []byte {
	t.Helper()
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	if err := dst.UnmarshalBinary(blob); err != nil {
		t.Fatalf("%s: unmarshal: %v", name, err)
	}
	blob2, err := dst.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: re-marshal: %v", name, err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("%s: decode → re-encode is not bit-identical (%d vs %d bytes)", name, len(blob), len(blob2))
	}
	return blob
}

func TestCodecRoundTripBitExact(t *testing.T) {
	stats := populatedStats(t)
	var stats2 OnlineStats
	roundTrip(t, "OnlineStats", stats, &stats2)
	if stats2.N() != stats.N() || stats2.SampleLen() != stats.SampleLen() {
		t.Fatalf("stats state drifted: n=%d len=%d", stats2.N(), stats2.SampleLen())
	}
	// NaN survives (bit-pattern encoding, not text).
	m, _ := stats2.Mean()
	if !math.IsNaN(m[1]) {
		t.Fatalf("NaN mean did not survive the round trip: %v", m)
	}

	welch := populatedWelch(t)
	var welch2 OnlineWelch
	roundTrip(t, "OnlineWelch", welch, &welch2)
	wt, _ := welch.T()
	wt2, err := welch2.T()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wt {
		if wt[i] != wt2[i] {
			t.Fatalf("welch t drifted at %d: %g vs %g", i, wt[i], wt2[i])
		}
	}

	set := populatedSet(t)
	var set2 Set
	roundTrip(t, "Set", set, &set2)
	if set2.Len() != set.Len() {
		t.Fatalf("set length drifted: %d vs %d", set2.Len(), set.Len())
	}
	for i, tr := range set.Traces {
		tr2 := set2.Traces[i]
		if tr2.StartCycle != tr.StartCycle || len(tr2.Samples) != len(tr.Samples) {
			t.Fatalf("trace %d shape drifted", i)
		}
		for j := range tr.Samples {
			if tr.Samples[j] != tr2.Samples[j] {
				t.Fatalf("trace %d sample %d drifted", i, j)
			}
		}
	}
}

// TestCodecEmptyRoundTrip pins the zero-value path: an empty
// accumulator round-trips to an empty accumulator, usable afterwards.
func TestCodecEmptyRoundTrip(t *testing.T) {
	var s, s2 OnlineStats
	roundTrip(t, "empty OnlineStats", &s, &s2)
	if err := s2.Add([]float64{1, 2}); err != nil {
		t.Fatalf("decoded empty accumulator rejects Add: %v", err)
	}
	var w, w2 OnlineWelch
	roundTrip(t, "empty OnlineWelch", &w, &w2)
	var set, set2 Set
	roundTrip(t, "empty Set", &set, &set2)
}

// TestCodecRejectsCorruption flips every single bit, truncates at
// every length, bumps the version, swaps the kind, and appends
// trailing bytes; the decoder must return an ErrCodec-wrapped error
// each time and leave the destination untouched.
func TestCodecRejectsCorruption(t *testing.T) {
	targets := []struct {
		name  string
		blob  []byte
		fresh func() marshaler
	}{
		{"OnlineStats", mustMarshal(t, populatedStats(t)), func() marshaler { return &OnlineStats{} }},
		{"OnlineWelch", mustMarshal(t, populatedWelch(t)), func() marshaler { return &OnlineWelch{} }},
		{"Set", mustMarshal(t, populatedSet(t)), func() marshaler { return &Set{} }},
	}
	check := func(name string, data []byte) {
		t.Helper()
		for _, tg := range targets {
			if tg.name == name {
				err := tg.fresh().UnmarshalBinary(data)
				if err == nil {
					t.Fatalf("%s: corrupt input accepted (%d bytes)", name, len(data))
				}
				if !errors.Is(err, ErrCodec) {
					t.Fatalf("%s: corrupt input returned %v, not ErrCodec", name, err)
				}
			}
		}
	}
	for _, tg := range targets {
		// Truncation at every prefix length.
		for l := 0; l < len(tg.blob); l++ {
			check(tg.name, tg.blob[:l])
		}
		// Every single-bit flip (header, payload or CRC) must be caught.
		for byteIdx := 0; byteIdx < len(tg.blob); byteIdx++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), tg.blob...)
				mut[byteIdx] ^= 1 << bit
				check(tg.name, mut)
			}
		}
		// Trailing garbage.
		check(tg.name, append(append([]byte(nil), tg.blob...), 0))
		// Kind confusion: a valid frame of every OTHER kind.
		for _, other := range targets {
			if other.name == tg.name {
				continue
			}
			check(tg.name, other.blob)
		}
	}
}

// TestCodecRejectsInconsistentState hand-builds frames whose envelope
// is valid but whose payload lies about itself.
func TestCodecRejectsInconsistentState(t *testing.T) {
	le := func(p []byte, vals ...uint64) []byte {
		for _, v := range vals {
			p = append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		return p
	}
	le32 := func(p []byte, v uint32) []byte {
		return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	cases := []struct {
		name string
		kind byte
		dst  marshaler
		p    []byte
	}{
		// n=5 but zero samples: a fed accumulator always has samples.
		{"stats count without samples", KindOnlineStats, &OnlineStats{}, le32(le(nil, 5), 0)},
		// n=0 but one sample column.
		{"stats samples without count", KindOnlineStats, &OnlineStats{}, le(le32(le(nil, 0), 1), 0, 0)},
		// Sample length claims more floats than the payload carries —
		// the allocation-bomb probe.
		{"stats length bomb", KindOnlineStats, &OnlineStats{}, le32(le(nil, 3), 0xFFFF_FFFF)},
	}
	for _, tc := range cases {
		err := tc.dst.UnmarshalBinary(EncodeFrame(tc.kind, tc.p))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: returned %v, not ErrCodec", tc.name, err)
		}
	}
}

func mustMarshal(t *testing.T, m marshaler) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
