package medsec_test

import (
	"testing"

	"medsec/internal/coproc"
	"medsec/internal/design"
	"medsec/internal/ec"
	"medsec/internal/fault"
	"medsec/internal/modn"
	"medsec/internal/protocol"
	"medsec/internal/puf"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/threshold"
)

// TestFullStackScenario exercises the whole system the way a medical
// deployment would: PUF-derived device identity, threshold-shared
// backend key, hardware-backed private identification, signed
// firmware update, and a post-deployment side-channel + fault audit.
func TestFullStackScenario(t *testing.T) {
	// --- Manufacturing: device key material from a PUF. ---
	silicon := puf.New(puf.CellsNeeded, 0xD06E)
	storageKey, enrollment, err := puf.Enroll(silicon, 1)
	if err != nil {
		t.Fatal(err)
	}
	rederived, err := puf.Reconstruct(silicon, enrollment)
	if err != nil {
		t.Fatal(err)
	}
	if rederived != storageKey {
		t.Fatal("PUF key not stable at power-up")
	}

	// --- The implant's co-processor and the clinic's reader. ---
	pt := design.Defaults()
	pt.Seed = 0xBEEF
	pt.TRNGSeed = 0xBEEF
	pt.XOnly = true // the audit's target runs the x-only ladder
	st := pt.MustBuild()
	chip, err := st.Chip()
	if err != nil {
		t.Fatal(err)
	}
	curve := chip.Curve()
	src := rng.NewDRBG(77).Uint64
	readerMul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}
	reader, err := protocol.NewReader(curve, readerMul, src)
	if err != nil {
		t.Fatal(err)
	}
	device, err := protocol.NewTag(curve, chip, src, reader.Pub)
	if err != nil {
		t.Fatal(err)
	}
	reader.Register(device.Pub)

	// --- Backend: the reader secret is threshold-shared (3-of-5). ---
	shares, err := threshold.Split(reader.Y, curve.Order, 3, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := threshold.Combine(shares[1:4], curve.Order)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Equal(reader.Y) {
		t.Fatal("threshold reconstruction of the reader key failed")
	}

	// --- A clinic visit: mutual auth + sealed telemetry. ---
	res, err := protocol.RunMutualAuth(device, reader, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("session failed at %s", res.AbortStage)
	}
	var nonce [16]byte
	nonce[0] = 0x42
	sealed, err := protocol.Telemetry(res.SessionKey, nonce, []byte("HR=58"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.OpenTelemetry(res.SessionKey, nonce, sealed, nil); err != nil {
		t.Fatal(err)
	}

	// --- Signed firmware update from the manufacturer. ---
	manufacturer, err := protocol.GenerateSigningKey(curve, readerMul, src)
	if err != nil {
		t.Fatal(err)
	}
	update, err := protocol.SignFirmware(manufacturer, readerMul, 2, []byte("fw v2"), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.AcceptFirmware(curve, chip, manufacturer.Pub, 1, update); err != nil {
		t.Fatalf("genuine firmware rejected: %v", err)
	}

	// --- Security audit: the deployed configuration must resist the
	// standard attacks. ---
	key := chip.GenerateScalar()
	tgt, err := st.Target(key)
	if err != nil {
		t.Fatal(err)
	}
	keys := []modn.Scalar{key, chip.GenerateScalar(), modn.FromUint64(3)}
	distinct, err := sca.VerifyConstantTime(tgt, keys, curve.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct) != 1 {
		t.Fatal("deployed chip is not constant time")
	}
	rep, err := fault.Sweep(curve, coproc.DefaultTiming(), fault.SweepConfig{
		FromIter: 0, ToIter: -1,
		CycleStride: 401, RegStride: 2, BitStride: 82,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escaped != 0 {
		t.Fatalf("faulty results escaped output validation: %v", rep.Escapes)
	}
}

// TestTranscriptReplayRejected: a recorded identification transcript
// must not authenticate against a fresh challenge (freshness comes
// from the reader's challenge e).
func TestTranscriptReplayRejected(t *testing.T) {
	curve := ec.K163()
	src := rng.NewDRBG(123).Uint64
	mul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}
	reader, err := protocol.NewReader(curve, mul, src)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := protocol.NewTag(curve, mul, src, reader.Pub)
	if err != nil {
		t.Fatal(err)
	}
	reader.Register(tag.Pub)

	commit, err := tag.Commit()
	if err != nil {
		t.Fatal(err)
	}
	challenge := reader.Challenge()
	response, err := tag.Respond(challenge)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := reader.Identify(commit, challenge, response); err != nil || idx != 0 {
		t.Fatalf("honest session failed: %d %v", idx, err)
	}
	// The attacker replays (commit, response) against a NEW challenge.
	fresh := reader.Challenge()
	if idx, err := reader.Identify(commit, fresh, response); err == nil && idx >= 0 {
		t.Fatal("replayed transcript authenticated under a fresh challenge")
	}
}
