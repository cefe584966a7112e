package sca

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"medsec/internal/rng"
)

// cpaDigest hashes everything a CPAResult decides: the recovered and
// true bits and the IEEE-754 bits of every winning/losing mean |rho|.
func cpaDigest(r *CPAResult) string {
	h := sha256.New()
	var buf [8]byte
	for i := range r.Recovered {
		h.Write([]byte{byte(r.Recovered[i]), byte(r.True[i])})
		for _, s := range r.Scores[i] {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(s))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCPAGoldenScores ties the CPA's floating-point output to values
// recorded from the serial implementation, in the four settings the
// evaluation runs: RPC with secret randomness, RPC with the randomness
// known (KnownMasks), RPC off, and the boolean1-masked target under
// the centered-product preprocessing. The determinism tests only
// compare the code with itself at another worker count; this pin
// catches a change in summation order or hypothesis layout that moves
// a score by one ulp. The constants must never be edited.
func TestCPAGoldenScores(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *Target
		last   int
		opt    CPAOptions
		want   string
	}{
		{"rpc-secret", func(t *testing.T) *Target { return newDPATarget(t, true, 301) },
			157, CPAOptions{Bits: 4}, "9d9dd15f27e363edb2fcfff130e29184cc9eecc727222bc76c5783023f6b8582"},
		{"rpc-known-masks", func(t *testing.T) *Target { return newDPATarget(t, true, 301) },
			157, CPAOptions{Bits: 4, KnownMasks: true}, "4a81e7e458358cc6248d33cd43dd37cbdfbf58ac4f2349067d8bf51a328e0a4d"},
		{"rpc-off", func(t *testing.T) *Target { return newDPATarget(t, false, 302) },
			157, CPAOptions{Bits: 4}, "41023d765bb6f2373e11da238588f08cb89faa038a3b3d58cd248eec30ff302a"},
		{"boolean1-centered-product", func(t *testing.T) *Target { return newMaskedTarget(t, 303, true) },
			158, CPAOptions{Bits: 3, Preprocess: PreprocessCenteredProduct}, "f109335d52acef3af3ceebc6e3c2265e243a2328b0561dd0beb9e94a2b037299"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			camp, err := tc.target(t).AcquireCampaign(400, 160, tc.last, rng.NewDRBG(31).Uint64)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CPA(camp, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := cpaDigest(res); got != tc.want {
				t.Errorf("CPA digest %s, recorded %s (recovered %v, true %v, scores %v)",
					got, tc.want, res.Recovered, res.True, res.Scores)
			}
		})
	}
}
