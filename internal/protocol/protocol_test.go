package protocol

import (
	"bytes"
	"errors"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

func testParties(t *testing.T, seed uint64) (*Tag, *Reader) {
	t.Helper()
	curve := ec.K163()
	src := rng.NewDRBG(seed).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	rdr, err := NewReader(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := NewTag(curve, mul, src, rdr.Pub)
	if err != nil {
		t.Fatal(err)
	}
	rdr.Register(tag.Pub)
	return tag, rdr
}

func TestIdentificationCompleteness(t *testing.T) {
	tag, rdr := testParties(t, 1)
	for i := 0; i < 5; i++ {
		idx, err := RunIdentification(tag, rdr)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if idx != 0 {
			t.Fatalf("identified index %d, want 0", idx)
		}
	}
}

func TestIdentificationMultipleTags(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(2).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	rdr, err := NewReader(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	var tags []*Tag
	for i := 0; i < 5; i++ {
		tag, err := NewTag(curve, mul, src, rdr.Pub)
		if err != nil {
			t.Fatal(err)
		}
		rdr.Register(tag.Pub)
		tags = append(tags, tag)
	}
	for want, tag := range tags {
		idx, err := RunIdentification(tag, rdr)
		if err != nil {
			t.Fatal(err)
		}
		if idx != want {
			t.Fatalf("tag %d identified as %d", want, idx)
		}
	}
}

func TestUnregisteredTagRejected(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(3).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	rdr, err := NewReader(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := NewTag(curve, mul, src, rdr.Pub)
	if err != nil {
		t.Fatal(err)
	}
	// DB stays empty.
	if _, err := RunIdentification(stranger, rdr); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("stranger accepted: %v", err)
	}
}

func TestTamperedMessagesRejected(t *testing.T) {
	tag, rdr := testParties(t, 4)
	commit, err := tag.Commit()
	if err != nil {
		t.Fatal(err)
	}
	challenge := rdr.Challenge()
	response, err := tag.Respond(challenge)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline sanity.
	if idx, err := rdr.Identify(commit, challenge, response); err != nil || idx != 0 {
		t.Fatalf("honest transcript rejected: %d %v", idx, err)
	}
	// A tampered response must not identify (fresh session each time —
	// transcripts are one-shot).
	for i := 0; i < 3; i++ {
		c1, _ := tag.Commit()
		ch1 := rdr.Challenge()
		r1, err := tag.Respond(ch1)
		if err != nil {
			t.Fatal(err)
		}
		r1[i] ^= 0x5a
		if _, err := rdr.Identify(c1, ch1, r1); err == nil {
			t.Fatal("tampered response accepted")
		}
	}
	// Tampered commitment: likely an invalid encoding or a different
	// point; either way identification must fail.
	c2, _ := tag.Commit()
	ch2 := rdr.Challenge()
	r2, _ := tag.Respond(ch2)
	c2[3] ^= 0x80
	if idx, err := rdr.Identify(c2, ch2, r2); err == nil && idx >= 0 {
		t.Fatal("tampered commitment accepted")
	}
}

func TestRespondRequiresCommit(t *testing.T) {
	tag, rdr := testParties(t, 5)
	if _, err := tag.Respond(rdr.Challenge()); err == nil {
		t.Fatal("Respond before Commit accepted")
	}
	// And the ephemeral is one-shot.
	if _, err := tag.Commit(); err != nil {
		t.Fatal(err)
	}
	ch := rdr.Challenge()
	if _, err := tag.Respond(ch); err != nil {
		t.Fatal(err)
	}
	if _, err := tag.Respond(ch); err == nil {
		t.Fatal("ephemeral r reused")
	}
}

func TestChallengeValidation(t *testing.T) {
	tag, _ := testParties(t, 6)
	if _, err := tag.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tag.Respond(make([]byte, scalarWire)); err == nil {
		t.Fatal("zero challenge accepted")
	}
	if _, err := tag.Respond([]byte{1, 2}); err == nil {
		t.Fatal("short challenge accepted")
	}
}

func TestComputationAsymmetry(t *testing.T) {
	// Paper §4: "protocols should be designed such that the heaviest
	// computation load is for the reader ... while the load for a tag
	// or a sensor is minimized." The Fig. 2 tag does 2 point
	// multiplications and 1 modular multiplication; the reader does 4.
	tag, rdr := testParties(t, 7)
	tag.Ledger = Ledger{}
	rdr.Ledger = Ledger{}
	if _, err := RunIdentification(tag, rdr); err != nil {
		t.Fatal(err)
	}
	if tag.Ledger.PointMuls != 2 {
		t.Fatalf("tag performed %d point muls, want 2", tag.Ledger.PointMuls)
	}
	if tag.Ledger.ModMuls != 1 {
		t.Fatalf("tag performed %d modular muls, want 1", tag.Ledger.ModMuls)
	}
	if rdr.Ledger.PointMuls <= tag.Ledger.PointMuls {
		t.Fatalf("reader (%d PMs) not doing more work than tag (%d)",
			rdr.Ledger.PointMuls, tag.Ledger.PointMuls)
	}
}

func TestSchnorrCompletenessAndSoundness(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(8).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	tag, err := NewSchnorrTag(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	ver := &SchnorrVerifier{Curve: curve, Mul: mul, Rand: src}
	commit, err := tag.Commit()
	if err != nil {
		t.Fatal(err)
	}
	challenge := ver.Challenge()
	response, err := tag.Respond(challenge)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ver.Verify(tag.Pub, commit, challenge, response)
	if err != nil || !ok {
		t.Fatalf("honest Schnorr transcript rejected: %v %v", ok, err)
	}
	// Against a different public key it must fail.
	other, _ := NewSchnorrTag(curve, mul, src)
	ok, err = ver.Verify(other.Pub, commit, challenge, response)
	if err != nil || ok {
		t.Fatal("Schnorr transcript verified against the wrong key")
	}
	// Tampered response fails.
	c2, _ := tag.Commit()
	ch2 := ver.Challenge()
	r2, _ := tag.Respond(ch2)
	r2[0] ^= 1
	ok, _ = ver.Verify(tag.Pub, c2, ch2, r2)
	if ok {
		t.Fatal("tampered Schnorr response accepted")
	}
}

func TestMutualAuthHappyPath(t *testing.T) {
	tag, rdr := testParties(t, 9)
	res, err := RunMutualAuth(tag, rdr, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.AbortStage != StageComplete {
		t.Fatalf("session did not complete: %+v", res)
	}
	if res.TagIndex != 0 {
		t.Fatalf("identified as %d", res.TagIndex)
	}
	if res.SessionKey == [16]byte{} {
		t.Fatal("no session key derived")
	}
	// Telemetry round trip under the session key.
	var nonce [16]byte
	nonce[0] = 7
	payload := []byte("HR=061;BATT=81%;LEAD_IMP=540ohm")
	var led Ledger
	sealed, err := Telemetry(res.SessionKey, nonce, payload, &led)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenTelemetry(res.SessionKey, nonce, sealed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("telemetry round trip failed")
	}
	if led.AESBlocks == 0 || led.TxBits == 0 {
		t.Fatal("telemetry not metered")
	}
	// Tampered telemetry rejected.
	sealed[2] ^= 4
	if _, err := OpenTelemetry(res.SessionKey, nonce, sealed, nil); err == nil {
		t.Fatal("tampered telemetry accepted")
	}
}

func TestAbortOrderingEnergyRule(t *testing.T) {
	// E11: against a rogue programmer, the server-first ordering must
	// cost the device strictly less than identification-first.
	tagA, rdrA := testParties(t, 10)
	good, err := RunMutualAuth(tagA, rdrA, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if good.Completed || good.AbortStage != StageServerAuth {
		t.Fatalf("rogue server not caught at server-auth: %+v", good)
	}

	tagB, rdrB := testParties(t, 10) // identical keys/material via same seed
	bad, err := RunMutualAuth(tagB, rdrB, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Completed {
		t.Fatal("rogue server session completed")
	}
	if good.DeviceLedger.PointMuls >= bad.DeviceLedger.PointMuls {
		t.Fatalf("server-first cost (%d PMs) not below identification-first (%d PMs)",
			good.DeviceLedger.PointMuls, bad.DeviceLedger.PointMuls)
	}
	if good.DeviceLedger.TxBits >= bad.DeviceLedger.TxBits {
		t.Fatalf("server-first TX (%d bits) not below identification-first (%d bits)",
			good.DeviceLedger.TxBits, bad.DeviceLedger.TxBits)
	}
	// The paper's quantitative point: the wasted energy is halved
	// (2 PMs vs 4 PMs on the device).
	if good.DeviceLedger.PointMuls != 2 || bad.DeviceLedger.PointMuls != 4 {
		t.Fatalf("PM counts (%d, %d), want (2, 4)",
			good.DeviceLedger.PointMuls, bad.DeviceLedger.PointMuls)
	}
}

func TestMutualAuthUnregisteredDeviceFailsIdentification(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(11).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	rdr, err := NewReader(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := NewTag(curve, mul, src, rdr.Pub) // never registered
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMutualAuth(tag, rdr, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.AbortStage != StageIdentification {
		t.Fatalf("unregistered device session: %+v", res)
	}
}

func TestScalarWireRoundTrip(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(12).Uint64
	for i := 0; i < 50; i++ {
		s := curve.Order.Rand(src)
		got, err := decodeScalar(encodeScalar(s))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(s) {
			t.Fatalf("wire round trip failed for %v", s)
		}
	}
	if _, err := decodeScalar(make([]byte, scalarWire+1)); err == nil {
		t.Fatal("oversized scalar accepted")
	}
}

func TestSoftwareMultiplierAgainstBaseline(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(13).Uint64
	mul := &SoftwareMultiplier{Curve: curve, Rand: src}
	for i := 0; i < 5; i++ {
		k := curve.Order.RandNonZero(src)
		p := curve.RandomPoint(src)
		got, err := mul.ScalarMul(k, p)
		if err != nil {
			t.Fatal(err)
		}
		want := curve.ScalarMulDoubleAndAdd(k, p)
		if !got.Equal(want) {
			t.Fatal("SoftwareMultiplier wrong")
		}
		x, err := mul.XOnlyMul(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(want.X) {
			t.Fatal("XOnlyMul wrong")
		}
	}
	if _, err := mul.XOnlyMul(modn.Zero(), curve.Generator()); err == nil {
		t.Fatal("x-only of infinity accepted")
	}
}
