package protocol

import "medsec/internal/ec"

// No experiment verifies a Schnorr transcript (the privacy game only
// links them); the tests use Verify to check that the tag's
// transcripts are valid.

// Verify checks s·P == R + e·X for the claimed public key.
func (v *SchnorrVerifier) Verify(pub ec.Point, commit, challenge, response []byte) (bool, error) {
	v.Ledger.RxBits += PointBits + ScalarBits
	R, err := v.Curve.Decompress(commit)
	if err != nil {
		return false, err
	}
	if err := v.Curve.Validate(R); err != nil {
		return false, err
	}
	e, err := decodeScalar(challenge)
	if err != nil {
		return false, err
	}
	s, err := decodeScalar(response)
	if err != nil {
		return false, err
	}
	sP, err := v.Mul.ScalarMul(s, v.Curve.Generator())
	v.Ledger.PointMuls++
	if err != nil {
		return false, err
	}
	eX, err := v.Mul.ScalarMul(e, pub)
	v.Ledger.PointMuls++
	if err != nil {
		return false, err
	}
	return sP.Equal(v.Curve.Add(R, eX)), nil
}
