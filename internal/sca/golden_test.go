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

// ladderSizes is the size ladder TestCPAGoldenLadder grows its
// campaigns through.
var ladderSizes = []int{25, 50, 100, 150, 200, 300, 450, 700}

// TestCPAGoldenLadder pins the CPA on every prefix of one campaign
// grown by ExtendCampaign, the way TracesToSuccess and the benchmark's
// size ladder call it: the digest chains cpaDigest over the sizes of
// ladderSizes. The secret-randomness and KnownMasks ladders both flip
// the level-0 decision between sizes, so the pin covers analyses
// reached after a changed decision as well as an unchanged one. The
// constants were recorded from the CPA that analysed every prefix from
// scratch and must never be edited.
func TestCPAGoldenLadder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *Target
		last   int
		opt    CPAOptions
		want   string
	}{
		{"rpc-secret", func(t *testing.T) *Target { return newDPATarget(t, true, 301) },
			155, CPAOptions{Bits: 6}, "c4a4353ebcca2f271a7936c62bc2af32931fcd225e3688d61ead5ff463a84b77"},
		{"rpc-known-masks", func(t *testing.T) *Target { return newDPATarget(t, true, 301) },
			155, CPAOptions{Bits: 6, KnownMasks: true}, "03ba539354536934182c7f6a35f197757d58a613bed51d47c926856709e34a5d"},
		{"rpc-off", func(t *testing.T) *Target { return newDPATarget(t, false, 302) },
			155, CPAOptions{Bits: 6}, "faa1f6ca626ef173d4a1105096d0048d2213508ce919287d10392bf980e030a8"},
		{"boolean1-centered-product", func(t *testing.T) *Target { return newMaskedTarget(t, 303, true) },
			158, CPAOptions{Bits: 3, Preprocess: PreprocessCenteredProduct}, "5ee308f7d6f5bc85b8ee7a47c4f4f37588c1735ab202219a4df6baa67d3f77e4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := tc.target(t)
			camp := tgt.NewCampaign(160, tc.last)
			points := rng.NewDRBG(31).Uint64
			h := sha256.New()
			for _, n := range ladderSizes {
				if err := tgt.ExtendCampaign(camp, n, points); err != nil {
					t.Fatal(err)
				}
				res, err := CPA(camp.Prefix(n), tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(cpaDigest(res)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("ladder digest %s, recorded %s", got, tc.want)
			}
		})
	}
}
