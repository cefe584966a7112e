// Package protocol implements the authentication protocols of the
// paper's Section 4:
//
//   - the Peeters–Hermans private identification protocol (Fig. 2),
//     which achieves wide-forward-insider privacy and costs the tag
//     two point multiplications and one modular multiplication;
//   - the Schnorr identification protocol, the baseline whose tags
//     "can be easily traced" (the privacy game in internal/privacy
//     demonstrates both claims);
//   - a pacemaker mutual-authentication session implementing the
//     paper's energy rule: "server authentication should be performed
//     before other operations. As such, the protocol session stops
//     immediately on the device when the server authentication fails."
//
// All party state machines exchange explicit byte-encoded messages,
// validate every received point (the invalid-point/fault-attack guard
// of the threat analysis), and meter their computation and radio
// usage through a Ledger so the energy experiments can price entire
// protocol runs.
package protocol

import (
	"errors"
	"fmt"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
)

// PointMultiplier abstracts who performs scalar multiplications: pure
// software (SoftwareMultiplier) or the simulated co-processor
// (internal/core.Coprocessor), which also accounts energy.
type PointMultiplier interface {
	// ScalarMul returns k*P.
	ScalarMul(k modn.Scalar, p ec.Point) (ec.Point, error)
	// XOnlyMul returns the affine x-coordinate of k*P.
	XOnlyMul(k modn.Scalar, p ec.Point) (gf2m.Element, error)
}

// SoftwareMultiplier runs the protected ladder in software with
// randomized projective coordinates.
type SoftwareMultiplier struct {
	Curve *ec.Curve
	Rand  func() uint64
}

// ScalarMul implements PointMultiplier.
func (s *SoftwareMultiplier) ScalarMul(k modn.Scalar, p ec.Point) (ec.Point, error) {
	return s.Curve.ScalarMulLadder(k, p, ec.LadderOptions{Rand: s.Rand})
}

// XOnlyMul implements PointMultiplier.
func (s *SoftwareMultiplier) XOnlyMul(k modn.Scalar, p ec.Point) (gf2m.Element, error) {
	x, ok := s.Curve.XOnlyScalarMul(k, p.X, ec.LadderOptions{Rand: s.Rand})
	if !ok {
		return gf2m.Element{}, errors.New("protocol: x-only result is the point at infinity")
	}
	return x, nil
}

// Ledger counts the operations a party performs so experiments can
// price a protocol run (computation via the co-processor energy model,
// communication via the radio model).
type Ledger struct {
	PointMuls int
	ModMuls   int
	AESBlocks int
	TxBits    int
	RxBits    int
}

// Add accumulates another ledger into l.
func (l *Ledger) Add(o Ledger) {
	l.PointMuls += o.PointMuls
	l.ModMuls += o.ModMuls
	l.AESBlocks += o.AESBlocks
	l.TxBits += o.TxBits
	l.RxBits += o.RxBits
}

// Message sizes on the wire (bits). Points are compressed (1 control
// byte + 21 coordinate bytes); scalars are the 21-byte big-endian
// field width (163 significant bits).
const (
	PointBits  = 8 * (1 + gf2m.ByteLen)
	ScalarBits = 8 * scalarWire
	scalarWire = 21
)

func encodeScalar(s modn.Scalar) []byte {
	full := s.Bytes()
	return full[len(full)-scalarWire:]
}

func decodeScalar(b []byte) (modn.Scalar, error) {
	if len(b) != scalarWire {
		return modn.Scalar{}, errors.New("protocol: bad scalar length")
	}
	return modn.FromBytes(b)
}

// Tag is the Peeters–Hermans tag (Fig. 2): state x (its secret) and
// Y = y·P (the reader's public key).
type Tag struct {
	Curve *ec.Curve
	Mul   PointMultiplier
	Rand  func() uint64
	// X is the secret key; Pub = x·P is what the reader's database
	// stores.
	X   modn.Scalar
	Pub ec.Point
	// Y is the reader's public key.
	Y ec.Point
	// Ledger meters this party's work.
	Ledger Ledger

	r modn.Scalar // per-session ephemeral
}

// NewTag generates a tag with a fresh secret, registered against the
// reader public key Y.
func NewTag(curve *ec.Curve, mul PointMultiplier, src func() uint64, y ec.Point) (*Tag, error) {
	x := curve.Order.RandNonZero(src)
	pub, err := mul.ScalarMul(x, curve.Generator())
	if err != nil {
		return nil, err
	}
	return &Tag{Curve: curve, Mul: mul, Rand: src, X: x, Pub: pub, Y: y}, nil
}

// Commit starts a session: draw r, send R = r·P (compressed).
//
// Radio bits are billed by the Wire that carries the message, not
// here, so a lossy link can charge the ledger for every physical
// retransmission. The ledger counts only operations that completed:
// a failed point multiplication performs no useful work and leaves
// PointMuls untouched.
func (t *Tag) Commit() ([]byte, error) {
	t.r = t.Curve.Order.RandNonZero(t.Rand)
	R, err := t.Mul.ScalarMul(t.r, t.Curve.Generator())
	if err != nil {
		return nil, err
	}
	t.Ledger.PointMuls++
	return t.Curve.Compress(R)
}

// Respond answers the reader challenge e with s = d + x + e·r where
// d = xcoord(r·Y) interpreted as an integer modulo the group order.
func (t *Tag) Respond(challenge []byte) ([]byte, error) {
	e, err := decodeScalar(challenge)
	if err != nil {
		return nil, err
	}
	if e.IsZero() || e.Cmp(t.Curve.Order.N()) >= 0 {
		return nil, errors.New("protocol: challenge out of range")
	}
	if t.r.IsZero() {
		return nil, errors.New("protocol: Respond before Commit")
	}
	dx, err := t.Mul.XOnlyMul(t.r, t.Y)
	if err != nil {
		return nil, err
	}
	t.Ledger.PointMuls++
	d, err := modn.FromBytes(dx.Bytes())
	if err != nil {
		return nil, err
	}
	d = t.Curve.Order.Reduce(d)
	er := t.Curve.Order.Mul(e, t.r)
	t.Ledger.ModMuls++
	s := t.Curve.Order.Add(t.Curve.Order.Add(d, t.X), er)
	t.r = modn.Zero() // one-shot ephemeral
	return encodeScalar(s), nil
}

// Reader is the Peeters–Hermans reader: secret y, public Y = y·P, and
// a database of registered tag public keys X_i = x_i·P.
type Reader struct {
	Curve *ec.Curve
	Mul   PointMultiplier
	Rand  func() uint64
	Y     modn.Scalar // secret y
	Pub   ec.Point    // Y = y·P
	DB    []ec.Point
	// Ledger meters this party's work (the reader is assumed energy
	// rich; the asymmetry is a design goal the tests check).
	Ledger Ledger
}

// NewReader generates a reader key pair with an empty database.
func NewReader(curve *ec.Curve, mul PointMultiplier, src func() uint64) (*Reader, error) {
	y := curve.Order.RandNonZero(src)
	pub, err := mul.ScalarMul(y, curve.Generator())
	if err != nil {
		return nil, err
	}
	return &Reader{Curve: curve, Mul: mul, Rand: src, Y: y, Pub: pub}, nil
}

// Register adds a tag's public key to the database and returns its
// index.
func (r *Reader) Register(pub ec.Point) int {
	r.DB = append(r.DB, pub)
	return len(r.DB) - 1
}

// Challenge draws the session challenge e. Radio bits are billed by
// the carrying Wire.
func (r *Reader) Challenge() []byte {
	e := r.Curve.Order.RandNonZero(r.Rand)
	return encodeScalar(e)
}

// ErrUnknownTag is returned when identification completes without a
// database match.
var ErrUnknownTag = errors.New("protocol: tag not in database")

// Identify verifies a session transcript (R, e, s) and returns the
// index of the identified tag:
//
//	d' = xcoord(y·R);  X' = s·P - d'·P - e·R  must be in DB.
func (r *Reader) Identify(commit, challenge, response []byte) (int, error) {
	R, err := r.Curve.Decompress(commit)
	if err != nil {
		return -1, fmt.Errorf("protocol: bad commitment: %w", err)
	}
	if err := r.Curve.Validate(R); err != nil {
		return -1, fmt.Errorf("protocol: invalid commitment point: %w", err)
	}
	e, err := decodeScalar(challenge)
	if err != nil {
		return -1, err
	}
	s, err := decodeScalar(response)
	if err != nil {
		return -1, err
	}
	if s.Cmp(r.Curve.Order.N()) >= 0 {
		return -1, errors.New("protocol: response out of range")
	}
	dx, err := r.Mul.XOnlyMul(r.Y, R)
	if err != nil {
		return -1, err
	}
	r.Ledger.PointMuls++
	d, err := modn.FromBytes(dx.Bytes())
	if err != nil {
		return -1, err
	}
	d = r.Curve.Order.Reduce(d)

	sP, err := r.Mul.ScalarMul(s, r.Curve.Generator())
	if err != nil {
		return -1, err
	}
	r.Ledger.PointMuls++
	dP, err := r.Mul.ScalarMul(d, r.Curve.Generator())
	if err != nil {
		return -1, err
	}
	r.Ledger.PointMuls++
	eR, err := r.Mul.ScalarMul(e, R)
	if err != nil {
		return -1, err
	}
	r.Ledger.PointMuls++
	X := r.Curve.Add(sP, r.Curve.Neg(r.Curve.Add(dP, eR)))
	for i, cand := range r.DB {
		if cand.Equal(X) {
			return i, nil
		}
	}
	return -1, ErrUnknownTag
}

// RunIdentification executes one complete Fig. 2 session between tag
// and reader over a perfect channel and returns the identified
// database index. Its ledgers are the historical baseline every lossy
// run is compared against.
func RunIdentification(t *Tag, r *Reader) (int, error) {
	return RunIdentificationWire(t, r, nil)
}

// RunIdentificationWire executes the Fig. 2 session with every message
// carried by w (nil means a fresh lossless wire). Radio bits —
// including retransmissions on a lossy link — are billed to the party
// ledgers by the wire. A *link.BudgetError from the transport
// propagates to the caller: the session cannot complete.
func RunIdentificationWire(t *Tag, r *Reader, w *Wire) (int, error) {
	if w == nil {
		w = NewLosslessWire()
	}
	commit, err := t.Commit()
	if err != nil {
		return -1, err
	}
	commit, err = w.ToServer(&t.Ledger, &r.Ledger, commit)
	if err != nil {
		return -1, err
	}
	challenge := r.Challenge()
	gotChallenge, err := w.ToDevice(&r.Ledger, &t.Ledger, challenge)
	if err != nil {
		return -1, err
	}
	response, err := t.Respond(gotChallenge)
	if err != nil {
		return -1, err
	}
	response, err = w.ToServer(&t.Ledger, &r.Ledger, response)
	if err != nil {
		return -1, err
	}
	return r.Identify(commit, challenge, response)
}
