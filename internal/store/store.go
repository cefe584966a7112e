// Package store is the durable, crash-safe campaign checkpoint store.
//
// A checkpoint file makes a long acquisition campaign survivable: the
// engine snapshots its streaming accumulators (internal/trace codecs)
// plus a provenance header at a configurable trace interval, and a
// later process resumes from the snapshot and produces output
// bit-identical to an uninterrupted run.
//
// # File format
//
//	offset 0   8-byte magic "MSCKPT01"
//	           header frame  (kind 32): JSON-encoded Header
//	           blob frames…  (kind 33): uint32 name length + name +
//	                         an inner frame owned by the state's own
//	                         codec (trace kinds)
//
// Every frame reuses the trace package envelope — version byte, kind
// byte, uint32 length, CRC-32(IEEE) over header+payload — so each
// region of the file is independently integrity-checked. Write is
// atomic: temp file in the target directory, fsync, rename, fsync of
// the directory; a crash mid-checkpoint leaves the previous checkpoint
// intact, never a torn file.
//
// # Provenance
//
// The Header chains the checkpoint to the run's obs.Manifest
// provenance: tool, campaign kind, seed, git SHA, the resolved
// design.Point, and the consumed-trace watermark (or per-shard
// cursors). Resume refuses on any mismatch with a *MismatchError
// naming the offending field; corrupt files surface as *CorruptError,
// never a panic and never a silent partial resume.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"medsec/internal/trace"
)

// Magic identifies a checkpoint file (8 bytes, versioned).
const Magic = "MSCKPT01"

// Frame kinds used by this package (the trace envelope reserves
// kinds ≥ 16 for packages other than trace; 16 and 17, once the
// deleted internal/fault tally codecs, are retired and never reused).
const (
	KindHeader  byte = 32
	KindBlob    byte = 33
	KindTrailer byte = 34
)

// Header is the provenance record chaining a checkpoint to the run
// that wrote it — the same identity fields the obs.Manifest carries,
// plus the resume position.
type Header struct {
	// Tool and Kind name the producing command and campaign flavor
	// ("scalab", "tvla"); a checkpoint from one campaign type must
	// never seed another.
	Tool string `json:"tool"`
	Kind string `json:"kind"`
	// Seed is the campaign master seed; every derived stream (key
	// schedule, TRNG, measurement noise) follows from it.
	Seed uint64 `json:"seed"`
	// GitSHA records the code that produced the snapshot
	// (obs.GitSHA(): short SHA, "-dirty" suffix, or "unknown").
	GitSHA string `json:"git_sha"`
	// Point is the resolved design.Point JSON — the full operating
	// point. Resume compares it byte-for-byte: any knob drift between
	// the checkpointing and resuming invocation is refused.
	Point json.RawMessage `json:"point,omitempty"`
	// Watermark is the number of traces consumed on the serial path
	// (a strict prefix: indices [From, From+Watermark) are folded).
	Watermark int `json:"watermark"`
	// Cursors are the per-shard global cursors on the sharded path
	// (shard s has folded indices [lo_s, Cursors[s])); nil on the
	// serial path.
	Cursors []int `json:"cursors,omitempty"`
	// From/To/Shards pin the index range and requested shard count.
	// With Cursors present the sharding layout derives from all
	// three, so resume requires exact equality; on the serial path To
	// may grow — that is exactly the cross-process extend-campaign
	// case.
	From   int `json:"from"`
	To     int `json:"to"`
	Shards int `json:"shards,omitempty"`
	// Complete marks a checkpoint written after the campaign finished
	// (normally or by early-stop): the state is final, resume must
	// not re-enter the acquisition loop behind it.
	Complete bool `json:"complete,omitempty"`
}

// Checkpoint is one decoded checkpoint file: provenance plus the
// named accumulator blobs (each an inner frame owned by its own
// codec — trace.OnlineWelch, trace.Set, …).
type Checkpoint struct {
	Header Header
	Blobs  map[string][]byte
}

// CorruptError reports a structurally invalid checkpoint file. It
// wraps the underlying cause (often trace.ErrCodec) for errors.Is.
type CorruptError struct {
	Path   string // file path, empty when decoding a byte slice
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	p := e.Path
	if p == "" {
		p = "checkpoint"
	}
	if e.Err != nil {
		return fmt.Sprintf("store: %s: %s: %v", p, e.Reason, e.Err)
	}
	return fmt.Sprintf("store: %s: %s", p, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// MismatchError reports a provenance field that differs between a
// checkpoint and the invocation trying to resume from it.
type MismatchError struct {
	Field string
	Want  string // the checkpoint's value
	Got   string // the resuming invocation's value
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("store: checkpoint provenance mismatch on %s: checkpoint has %s, this invocation has %s (refusing resume)",
		e.Field, e.Want, e.Got)
}

// Match verifies that cur — the Header the resuming invocation would
// itself write — describes the same campaign as h, returning a
// *MismatchError naming the first differing field. On the serial path
// (no Cursors) cur.To may exceed h.To: extending a finished or
// interrupted campaign by more traces is the supported cross-process
// ExtendCampaign; shrinking it is not.
func (h *Header) Match(cur Header) error {
	mismatch := func(field, want, got string) error {
		return &MismatchError{Field: field, Want: want, Got: got}
	}
	if h.Tool != cur.Tool {
		return mismatch("tool", h.Tool, cur.Tool)
	}
	if h.Kind != cur.Kind {
		return mismatch("kind", h.Kind, cur.Kind)
	}
	if h.Seed != cur.Seed {
		return mismatch("seed", fmt.Sprint(h.Seed), fmt.Sprint(cur.Seed))
	}
	if !jsonEqual(h.Point, cur.Point) {
		return mismatch("design point", compactJSON(h.Point), compactJSON(cur.Point))
	}
	if h.GitSHA != cur.GitSHA {
		return mismatch("git SHA", h.GitSHA, cur.GitSHA)
	}
	if h.From != cur.From {
		return mismatch("range start", fmt.Sprint(h.From), fmt.Sprint(cur.From))
	}
	if h.Shards != cur.Shards {
		return mismatch("shard count", fmt.Sprint(h.Shards), fmt.Sprint(cur.Shards))
	}
	if len(h.Cursors) > 0 {
		// Sharded layout: block bounds derive from (From, To, Shards),
		// so the range end must match exactly or the stored cursors
		// are meaningless.
		if h.To != cur.To {
			return mismatch("range end", fmt.Sprint(h.To), fmt.Sprint(cur.To))
		}
	} else if cur.To < h.To {
		return mismatch("range end", fmt.Sprint(h.To), fmt.Sprintf("%d (shrinking a campaign is not resumable)", cur.To))
	}
	return nil
}

// jsonEqual compares two JSON documents by compacted bytes (exact
// value comparison is overkill: both sides are produced by the same
// design.Point marshaler).
func jsonEqual(a, b json.RawMessage) bool {
	return compactJSON(a) == compactJSON(b)
}

func compactJSON(m json.RawMessage) string {
	if len(m) == 0 {
		return ""
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, m); err != nil {
		return string(m)
	}
	return buf.String()
}

// Encode serializes the checkpoint to its file bytes. Blob order is
// the sorted name order, so identical state always encodes to
// identical bytes.
func (c *Checkpoint) Encode() ([]byte, error) {
	hdr, err := json.Marshal(&c.Header)
	if err != nil {
		return nil, fmt.Errorf("store: encoding header: %w", err)
	}
	out := append([]byte(nil), Magic...)
	out = append(out, trace.EncodeFrame(KindHeader, hdr)...)
	names := make([]string, 0, len(c.Blobs))
	for name := range c.Blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := make([]byte, 0, 4+len(name)+len(c.Blobs[name]))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(name)))
		p = append(p, name...)
		p = append(p, c.Blobs[name]...)
		out = append(out, trace.EncodeFrame(KindBlob, p)...)
	}
	// The trailer marks end-of-file: a crash that tears the file at a
	// frame boundary would otherwise read as a valid checkpoint with
	// silently missing blobs.
	return append(out, trace.EncodeFrame(KindTrailer, nil)...), nil
}

// Decode parses checkpoint file bytes. Any structural problem —
// truncation, CRC mismatch, version or kind confusion, duplicate blob
// names, malformed header JSON — returns a *CorruptError.
func Decode(data []byte) (*Checkpoint, error) {
	corrupt := func(reason string, err error) (*Checkpoint, error) {
		return nil, &CorruptError{Reason: reason, Err: err}
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return corrupt("bad magic (not a checkpoint file)", nil)
	}
	rest := data[len(Magic):]

	frame, tail, kind, err := nextFrame(rest)
	if err != nil {
		return corrupt("reading header frame", err)
	}
	if kind != KindHeader {
		return corrupt(fmt.Sprintf("first frame has kind %d, want header", kind), nil)
	}
	payload, err := trace.DecodeFrame(frame, KindHeader)
	if err != nil {
		return corrupt("header frame", err)
	}
	ck := &Checkpoint{Blobs: map[string][]byte{}}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ck.Header); err != nil {
		return corrupt("header JSON", fmt.Errorf("%w: %w", trace.ErrCodec, err))
	}
	if dec.More() {
		return corrupt("header JSON", fmt.Errorf("%w: trailing document", trace.ErrCodec))
	}
	if err := ck.Header.validate(); err != nil {
		return corrupt("header", err)
	}

	sawTrailer := false
	for rest = tail; len(rest) > 0; {
		frame, tail, kind, err = nextFrame(rest)
		if err != nil {
			return corrupt("reading blob frame", err)
		}
		if kind == KindTrailer {
			if _, err := trace.DecodeFrame(frame, KindTrailer); err != nil {
				return corrupt("trailer frame", err)
			}
			if len(tail) != 0 {
				return corrupt(fmt.Sprintf("%d bytes after the trailer", len(tail)), nil)
			}
			sawTrailer = true
			break
		}
		if kind != KindBlob {
			return corrupt(fmt.Sprintf("frame has kind %d, want blob", kind), nil)
		}
		payload, err := trace.DecodeFrame(frame, KindBlob)
		if err != nil {
			return corrupt("blob frame", err)
		}
		if len(payload) < 4 {
			return corrupt("blob frame payload truncated", trace.ErrCodec)
		}
		nameLen := int(binary.LittleEndian.Uint32(payload))
		if nameLen < 0 || 4+nameLen > len(payload) {
			return corrupt("blob name truncated", trace.ErrCodec)
		}
		name := string(payload[4 : 4+nameLen])
		if name == "" {
			return corrupt("blob with empty name", trace.ErrCodec)
		}
		if _, dup := ck.Blobs[name]; dup {
			return corrupt(fmt.Sprintf("duplicate blob %q", name), trace.ErrCodec)
		}
		ck.Blobs[name] = append([]byte(nil), payload[4+nameLen:]...)
		rest = tail
	}
	if !sawTrailer {
		return corrupt("missing trailer (file torn at a frame boundary)", nil)
	}
	return ck, nil
}

// validate rejects headers whose resume position is internally
// inconsistent — a corrupt but CRC-valid header must not drive the
// engine out of bounds.
func (h *Header) validate() error {
	if h.From > h.To {
		return fmt.Errorf("%w: range [%d,%d) inverted", trace.ErrCodec, h.From, h.To)
	}
	if h.Watermark < 0 || h.From+h.Watermark > h.To {
		return fmt.Errorf("%w: watermark %d outside range [%d,%d)", trace.ErrCodec, h.Watermark, h.From, h.To)
	}
	for s, c := range h.Cursors {
		if c < h.From || c > h.To {
			return fmt.Errorf("%w: shard %d cursor %d outside range [%d,%d)", trace.ErrCodec, s, c, h.From, h.To)
		}
	}
	return nil
}

// nextFrame splits one envelope frame off the front of data without
// validating its CRC (trace.DecodeFrame does that); it only needs the
// length to find the boundary.
func nextFrame(data []byte) (frame, tail []byte, kind byte, err error) {
	const headerLen = 6 // version + kind + uint32 length
	if len(data) < headerLen+4 {
		return nil, nil, 0, fmt.Errorf("%w: frame truncated at %d bytes", trace.ErrCodec, len(data))
	}
	l := binary.LittleEndian.Uint32(data[2:6])
	total := uint64(headerLen) + uint64(l) + 4
	if uint64(len(data)) < total {
		return nil, nil, 0, fmt.Errorf("%w: frame of %d bytes truncated at %d", trace.ErrCodec, total, len(data))
	}
	return data[:total], data[total:], data[1], nil
}

// Read loads and decodes a checkpoint file. I/O errors pass through
// (os.IsNotExist works); structural problems are *CorruptError with
// the path filled in.
func Read(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := Decode(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return ck, nil
}

// Write encodes the checkpoint and writes it atomically: a temp file
// in the target directory, fsync, rename over path, fsync of the
// directory. A crash at any point leaves either the old checkpoint or
// the new one — never a torn file.
func Write(path string, ck *Checkpoint) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: creating temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: publishing checkpoint: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort
	// on filesystems that refuse it; the rename is still atomic.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
