package protocol

import (
	"errors"

	"medsec/internal/ec"
	"medsec/internal/modn"
)

// SchnorrTag is the baseline identification protocol of Schnorr [17].
// It is sound but NOT private: the verification equation
// s·P = R + e·X lets any wide attacker who knows the candidate public
// keys link transcripts to tags (paper §4: "tags using the Schnorr
// identification protocol can be easily traced"). The privacy game in
// internal/privacy exploits exactly this.
type SchnorrTag struct {
	Curve  *ec.Curve
	Mul    PointMultiplier
	Rand   func() uint64
	X      modn.Scalar
	Pub    ec.Point
	Ledger Ledger

	r modn.Scalar
}

// NewSchnorrTag generates a Schnorr prover.
func NewSchnorrTag(curve *ec.Curve, mul PointMultiplier, src func() uint64) (*SchnorrTag, error) {
	x := curve.Order.RandNonZero(src)
	pub, err := mul.ScalarMul(x, curve.Generator())
	if err != nil {
		return nil, err
	}
	return &SchnorrTag{Curve: curve, Mul: mul, Rand: src, X: x, Pub: pub}, nil
}

// Commit sends R = r·P.
func (t *SchnorrTag) Commit() ([]byte, error) {
	t.r = t.Curve.Order.RandNonZero(t.Rand)
	R, err := t.Mul.ScalarMul(t.r, t.Curve.Generator())
	t.Ledger.PointMuls++
	if err != nil {
		return nil, err
	}
	t.Ledger.TxBits += PointBits
	return t.Curve.Compress(R)
}

// Respond sends s = r + e·x.
func (t *SchnorrTag) Respond(challenge []byte) ([]byte, error) {
	t.Ledger.RxBits += ScalarBits
	e, err := decodeScalar(challenge)
	if err != nil {
		return nil, err
	}
	if t.r.IsZero() {
		return nil, errors.New("protocol: Respond before Commit")
	}
	ex := t.Curve.Order.Mul(e, t.X)
	t.Ledger.ModMuls++
	s := t.Curve.Order.Add(t.r, ex)
	t.r = modn.Zero()
	t.Ledger.TxBits += ScalarBits
	return encodeScalar(s), nil
}

// SchnorrVerifier is the reader's side of a Schnorr identification: it
// draws the challenges. The check of a transcript, Verify, lives in the
// package's tests; the privacy game only links transcripts.
type SchnorrVerifier struct {
	Curve  *ec.Curve
	Mul    PointMultiplier
	Rand   func() uint64
	Ledger Ledger
}

// Challenge draws a challenge.
func (v *SchnorrVerifier) Challenge() []byte {
	e := v.Curve.Order.RandNonZero(v.Rand)
	v.Ledger.TxBits += ScalarBits
	return encodeScalar(e)
}
