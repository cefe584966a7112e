package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary codecs for the streaming accumulators and the retained trace
// set — the serialization boundary of the durable campaign store
// (internal/store).
//
// Every blob is one self-describing frame:
//
//	offset 0      byte   codec version (currently 1)
//	offset 1      byte   kind (which accumulator state follows)
//	offset 2      uint32 payload length L, little-endian
//	offset 6      payload (L bytes, kind-specific, little-endian)
//	offset 6+L    uint32 CRC-32 (IEEE) over bytes [0, 6+L)
//
// Integers are fixed-width little-endian; float64 values are their
// IEEE-754 bit patterns, so encode → decode round-trips every
// accumulator bit for bit (including NaN payloads). A decoded
// accumulator therefore Merges and folds exactly like the in-memory
// original — the property the checkpoint/resume contract rests on
// (asserted to 1e-12, and in fact exact, by the merge property tests).
//
// Decoding is defensive: any truncation, length inconsistency, CRC
// mismatch, unknown version/kind, or internally inconsistent state (a
// trace count without samples, an out-of-range start cycle) returns an
// error wrapping ErrCodec — never a panic, never a silently corrupt
// accumulator. The checkpoint fuzz target (internal/store) and
// FuzzSetDecode lean on this.

// CodecVersion is the frame envelope's wire-format version, shared by
// every kind — the checkpoint store's container frames included.
// Decoders reject other versions. A change to one kind's payload
// layout takes a new kind number instead, so the envelope and every
// other kind stay readable.
const CodecVersion = 1

// Frame kinds. Kinds 1–15 are reserved for package trace; other
// packages framing their state with EncodeFrame (internal/store's
// checkpoint container) use kinds from 16 up. Kinds 3–5, 16 and 17 are
// retired and never reused, so an old frame is refused as a kind
// mismatch: 3 and 4 held the deleted difference-of-means and
// correlation accumulators, 5 the trace set with per-sample iteration
// labels, 16 and 17 internal/fault's deleted sweep-tally codecs.
const (
	KindOnlineStats   byte = 1
	KindOnlineWelch   byte = 2
	KindOnlineMoments byte = 6
	KindOnlineWelch2  byte = 7
	KindSet           byte = 8
)

// ErrCodec is wrapped by every accumulator decoding failure, so
// callers can distinguish corrupt input from I/O errors with
// errors.Is.
var ErrCodec = errors.New("trace: malformed accumulator encoding")

const frameHeaderLen = 6 // version + kind + uint32 payload length

// EncodeFrame wraps a payload in the versioned, length-prefixed,
// CRC-32-framed envelope described in the package codec notes.
func EncodeFrame(kind byte, payload []byte) []byte {
	out := make([]byte, 0, frameHeaderLen+len(payload)+4)
	out = append(out, CodecVersion, kind)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// DecodeFrame validates a frame's envelope (version, kind, length,
// CRC) and returns its payload. The frame must span data exactly;
// trailing bytes are a corruption signal, not an extension point.
func DecodeFrame(data []byte, kind byte) ([]byte, error) {
	if len(data) < frameHeaderLen+4 {
		return nil, fmt.Errorf("%w: frame truncated at %d bytes", ErrCodec, len(data))
	}
	if data[0] != CodecVersion {
		return nil, fmt.Errorf("%w: version %d, decoder speaks %d", ErrCodec, data[0], CodecVersion)
	}
	if data[1] != kind {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrCodec, data[1], kind)
	}
	l := binary.LittleEndian.Uint32(data[2:6])
	if uint64(len(data)) != frameHeaderLen+uint64(l)+4 {
		return nil, fmt.Errorf("%w: payload length %d disagrees with frame size %d", ErrCodec, l, len(data))
	}
	body := data[:frameHeaderLen+l]
	want := binary.LittleEndian.Uint32(data[frameHeaderLen+l:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCodec, want, got)
	}
	return body[frameHeaderLen:], nil
}

// payloadReader walks a payload with sticky error state: the first
// out-of-bounds read poisons every later one, so decoders check err
// once at the end.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCodec, what, r.off)
	}
}

func (r *payloadReader) uint64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) uint32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// floats reads n float64 values. The remaining-length check precedes
// the allocation, so a corrupt length cannot provoke an allocation
// bomb — the slice is never larger than the input that carried it.
func (r *payloadReader) floats(n int, what string) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+8*n > len(r.b) || 8*n < 0 {
		r.fail(what)
		return nil
	}
	if n == 0 {
		// Keep nil, not an empty slice: the accumulators use a nil
		// buffer as the "sample length not yet fixed" sentinel.
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

// frame reads one uint32-length-prefixed inner frame.
func (r *payloadReader) frame(what string) []byte {
	n := r.uint32(what + " length")
	if r.err == nil && (int(n) < 0 || r.off+int(n) > len(r.b)) {
		r.fail(what + " frame")
	}
	if r.err != nil {
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// done reports decoding success: no sticky error and no trailing
// payload bytes.
func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCodec, len(r.b)-r.off)
	}
	return nil
}

func appendFloats(dst []byte, v []float64) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// countLen validates the (count, sample length) pair every accumulator
// carries: a fed accumulator always has samples, an empty one never
// does.
func countLen(n uint64, l uint32) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: implausible trace count %d", ErrCodec, n)
	}
	if (n == 0) != (l == 0) {
		return fmt.Errorf("%w: trace count %d inconsistent with sample length %d", ErrCodec, n, l)
	}
	return nil
}

// encodeMoments frames a per-population accumulator: its trace count,
// its sample length, then each per-sample vector in turn.
func encodeMoments(kind byte, n int, vecs ...[]float64) []byte {
	l := len(vecs[0])
	p := make([]byte, 0, 12+8*l*len(vecs))
	p = binary.LittleEndian.AppendUint64(p, uint64(n))
	p = binary.LittleEndian.AppendUint32(p, uint32(l))
	for _, v := range vecs {
		p = appendFloats(p, v)
	}
	return EncodeFrame(kind, p)
}

// decodeMoments reverses encodeMoments, reading one vector per name.
func decodeMoments(data []byte, kind byte, names ...string) (int, [][]float64, error) {
	payload, err := DecodeFrame(data, kind)
	if err != nil {
		return 0, nil, err
	}
	r := &payloadReader{b: payload}
	n := r.uint64("trace count")
	l := r.uint32("sample length")
	vecs := make([][]float64, len(names))
	for i, name := range names {
		vecs[i] = r.floats(int(l), name)
	}
	if err := r.done(); err != nil {
		return 0, nil, err
	}
	if err := countLen(n, l); err != nil {
		return 0, nil, err
	}
	return int(n), vecs, nil
}

// MarshalBinary serializes the accumulator (see the package codec
// notes for the frame layout).
func (o *OnlineStats) MarshalBinary() ([]byte, error) {
	return encodeMoments(KindOnlineStats, o.n, o.mean, o.m2), nil
}

// UnmarshalBinary restores the accumulator from MarshalBinary output,
// replacing the receiver's state. Corrupt input returns an error
// wrapping ErrCodec and leaves the receiver untouched.
func (o *OnlineStats) UnmarshalBinary(data []byte) error {
	n, v, err := decodeMoments(data, KindOnlineStats, "mean vector", "m2 vector")
	if err != nil {
		return err
	}
	o.n, o.mean, o.m2 = n, v[0], v[1]
	return nil
}

// MarshalBinary serializes the degree-4 moment accumulator.
func (o *OnlineMoments) MarshalBinary() ([]byte, error) {
	return encodeMoments(KindOnlineMoments, o.n, o.mean, o.m2, o.m3, o.m4), nil
}

// UnmarshalBinary restores the degree-4 moment accumulator, replacing
// the receiver's state. Corrupt input returns an error wrapping
// ErrCodec and leaves the receiver untouched.
func (o *OnlineMoments) UnmarshalBinary(data []byte) error {
	n, v, err := decodeMoments(data, KindOnlineMoments, "mean vector", "m2 vector", "m3 vector", "m4 vector")
	if err != nil {
		return err
	}
	o.n, o.mean, o.m2, o.m3, o.m4 = n, v[0], v[1], v[2], v[3]
	return nil
}

// pairKind is the frame kind of a Welch pair over this accumulator.
func (*OnlineStats) pairKind() byte { return KindOnlineWelch }

func (*OnlineMoments) pairKind() byte { return KindOnlineWelch2 }

// MarshalBinary serializes the two-population accumulator as a frame
// whose payload is the two length-prefixed population frames, of kind
// KindOnlineWelch at first order and KindOnlineWelch2 at second.
func (w *Welch[P, PP]) MarshalBinary() ([]byte, error) {
	p := []byte{}
	for _, pop := range []PP{&w.A, &w.B} {
		blob, err := pop.MarshalBinary()
		if err != nil {
			return nil, err
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(len(blob)))
		p = append(p, blob...)
	}
	return EncodeFrame(PP(&w.A).pairKind(), p), nil
}

// UnmarshalBinary restores the two-population accumulator, replacing
// the receiver's state. Corrupt input returns an error wrapping
// ErrCodec and leaves the receiver untouched.
func (w *Welch[P, PP]) UnmarshalBinary(data []byte) error {
	var next Welch[P, PP]
	payload, err := DecodeFrame(data, PP(&next.A).pairKind())
	if err != nil {
		return err
	}
	r := &payloadReader{b: payload}
	a := r.frame("population A")
	b := r.frame("population B")
	if err := r.done(); err != nil {
		return err
	}
	if err := PP(&next.A).UnmarshalBinary(a); err != nil {
		return err
	}
	if err := PP(&next.B).UnmarshalBinary(b); err != nil {
		return err
	}
	*w = next
	return nil
}

// MarshalBinary serializes a retained trace set — the durable form of
// the multi-pass campaigns (CPA keeps every trace). Pooled buffers are
// copied out; the encoding owns its memory.
func (s *Set) MarshalBinary() ([]byte, error) {
	size := 4
	for _, tr := range s.Traces {
		size += 12 + 8*len(tr.Samples)
	}
	p := make([]byte, 0, size)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Traces)))
	for _, tr := range s.Traces {
		p = binary.LittleEndian.AppendUint64(p, uint64(int64(tr.StartCycle)))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(tr.Samples)))
		p = appendFloats(p, tr.Samples)
	}
	return EncodeFrame(KindSet, p), nil
}

// UnmarshalBinary restores a trace set from MarshalBinary output. The
// restored traces own unpooled buffers; releasing them simply donates
// the memory to the pool.
func (s *Set) UnmarshalBinary(data []byte) error {
	payload, err := DecodeFrame(data, KindSet)
	if err != nil {
		return err
	}
	r := &payloadReader{b: payload}
	n := r.uint32("trace count")
	if int(n) < 0 {
		return fmt.Errorf("%w: implausible trace count %d", ErrCodec, n)
	}
	traces := []Trace{}
	for i := 0; i < int(n) && r.err == nil; i++ {
		start := int64(r.uint64("start cycle"))
		ns := r.uint32("sample length")
		samples := r.floats(int(ns), "samples")
		if r.err != nil {
			break
		}
		if start < math.MinInt32 || start > math.MaxInt32 {
			return fmt.Errorf("%w: implausible start cycle %d", ErrCodec, start)
		}
		traces = append(traces, Trace{Samples: samples, StartCycle: int(start)})
	}
	if err := r.done(); err != nil {
		return err
	}
	s.Traces = traces
	return nil
}
