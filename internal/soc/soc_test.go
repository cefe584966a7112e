package soc

import (
	"testing"
	"testing/quick"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

func TestCommandFlowHappyPath(t *testing.T) {
	d := NewDevice(1)
	curve := ec.K163()
	src := rng.NewDRBG(2).Uint64
	k := curve.Order.RandNonZero(src)
	p := curve.RandomPoint(src)
	if err := d.WriteKey(k); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePoint(p); err != nil {
		t.Fatal(err)
	}
	if err := d.StartPointMul(); err != nil {
		t.Fatal(err)
	}
	if d.Poll() != StatusDone {
		t.Fatalf("status %v", d.Poll())
	}
	got, err := d.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	want := curve.ScalarMulDoubleAndAdd(k, p)
	if !got.Equal(want) {
		t.Fatal("device result wrong")
	}
	// x-only flow.
	if err := d.StartXOnly(); err != nil {
		t.Fatal(err)
	}
	x, err := d.ReadResultX()
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(want.X) {
		t.Fatal("x-only result wrong")
	}
}

func TestSequencingErrors(t *testing.T) {
	d := NewDevice(3)
	curve := ec.K163()
	src := rng.NewDRBG(4).Uint64
	// Start before operands.
	if err := d.StartPointMul(); err != ErrSequence {
		t.Fatalf("start without operands: %v", err)
	}
	if err := d.WriteKey(curve.Order.RandNonZero(src)); err != nil {
		t.Fatal(err)
	}
	if err := d.StartPointMul(); err != ErrSequence {
		t.Fatal("start without point accepted")
	}
	// Result reads in wrong mode / state.
	if _, err := d.ReadResult(); err != ErrSequence {
		t.Fatal("read before done accepted")
	}
	if err := d.WritePoint(curve.RandomPoint(src)); err != nil {
		t.Fatal(err)
	}
	if err := d.StartXOnly(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadResult(); err != ErrSequence {
		t.Fatal("full-result read after x-only op accepted")
	}
	// Unreduced key and invalid points rejected at the interface.
	if err := d.WriteKey(curve.Order.N()); err == nil {
		t.Fatal("unreduced key accepted")
	}
	bad := curve.Generator()
	bad.Y = bad.Y.SetBit(3, bad.Y.Bit(3)^1)
	if err := d.WritePoint(bad); err == nil {
		t.Fatal("off-curve point accepted by the interface")
	}
}

// TestNoCommandSequenceRevealsKey is the paper's §5 requirement as a
// fuzz test: drive the device with random command sequences and check
// that nothing observable through the interface (results, status,
// cycle counts, errors) contains the key bytes.
func TestNoCommandSequenceRevealsKey(t *testing.T) {
	curve := ec.K163()
	f := func(seed uint64, script []byte) bool {
		d := NewDevice(seed)
		src := rng.NewDRBG(seed + 1).Uint64
		key := curve.Order.RandNonZero(src)
		keyBytes := key.Bytes()[12:] // the significant 20 bytes
		p := curve.RandomPoint(src)

		var observed [][]byte
		note := func(b []byte) { observed = append(observed, b) }

		if len(script) > 10 {
			script = script[:10] // bound simulation time per sequence
		}
		_ = d.WriteKey(key)
		for _, op := range script {
			switch op % 6 {
			case 0:
				_ = d.WriteKey(key)
			case 1:
				_ = d.WritePoint(p)
			case 2:
				_ = d.StartPointMul()
			case 3:
				_ = d.StartXOnly()
			case 4:
				if r, err := d.ReadResult(); err == nil {
					note(r.X.Bytes())
					note(r.Y.Bytes())
				}
			case 5:
				if x, err := d.ReadResultX(); err == nil {
					note(x.Bytes())
				}
			}
			note([]byte{byte(d.Poll())})
			c := d.Cycles()
			note([]byte{byte(c), byte(c >> 8), byte(c >> 16)})
		}
		// The key (as a contiguous byte string) must not appear in any
		// observable output. (Results are k*P — one-way by ECDLP; this
		// check catches plumbing bugs like a result register aliasing
		// the key register.)
		for _, o := range observed {
			if containsSubslice(o, keyBytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func containsSubslice(haystack, needle []byte) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

func TestCycleCountIsPublicAndConstant(t *testing.T) {
	// Exposing Cycles() is safe because it is key-independent.
	curve := ec.K163()
	src := rng.NewDRBG(9).Uint64
	p := curve.RandomPoint(src)
	var counts []int
	for i := 0; i < 3; i++ {
		d := NewDevice(uint64(10 + i))
		if err := d.WriteKey(curve.Order.RandNonZero(src)); err != nil {
			t.Fatal(err)
		}
		if err := d.WritePoint(p); err != nil {
			t.Fatal(err)
		}
		if err := d.StartPointMul(); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, d.Cycles())
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("cycle counts differ across keys: %v", counts)
	}
}

func TestClearKeyForcesReload(t *testing.T) {
	d := NewDevice(20)
	curve := ec.K163()
	src := rng.NewDRBG(21).Uint64
	if err := d.WriteKey(curve.Order.RandNonZero(src)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePoint(curve.RandomPoint(src)); err != nil {
		t.Fatal(err)
	}
	d.ClearKey()
	if err := d.StartPointMul(); err != ErrSequence {
		t.Fatal("start after ClearKey accepted")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusIdle, StatusBusy, StatusDone, StatusFault, Status(7)} {
		if s.String() == "" {
			t.Fatal("empty status name")
		}
	}
}

func TestZeroKeyXOnlyFaults(t *testing.T) {
	// k = 0 gives the point at infinity. Neither path can represent it,
	// and neither may report Done with a bogus value.
	d := NewDevice(30)
	curve := ec.K163()
	src := rng.NewDRBG(31).Uint64
	if err := d.WriteKey(modn.Zero()); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePoint(curve.RandomPoint(src)); err != nil {
		t.Fatal(err)
	}
	// 0*P = O: full path validation rejects it -> fault state.
	if err := d.StartPointMul(); err != nil {
		t.Fatal(err)
	}
	if d.Poll() != StatusFault {
		t.Fatalf("0*P produced status %v, want fault", d.Poll())
	}
	// The x-only path computes x = 0, which no subgroup point has.
	if err := d.StartXOnly(); err != nil {
		t.Fatal(err)
	}
	if d.Poll() != StatusFault {
		t.Fatalf("x-only 0*P produced status %v, want fault", d.Poll())
	}
	if x, err := d.ReadResultX(); err != ErrSequence {
		t.Fatalf("x-only 0*P read back x = %v", x)
	}
}

// TestXOnlyFaultsOutsideSubgroup holds start's x-only check to the full
// path's Validate: an x that solves the curve equation but whose points
// lie outside the prime-order subgroup (here Tr(x) = 0 != Tr(a) = 1)
// must fault, as must x = 0; the x of a subgroup point passes.
func TestXOnlyFaultsOutsideSubgroup(t *testing.T) {
	d := NewDevice(1)
	curve := ec.K163()
	x := gf2m.MustFromHex("1039013160ea0cdd07dafae17d205275dc92e4a88")
	y, ok := curve.SolveY(x)
	if !ok {
		t.Fatal("x solves no curve equation; the case is vacuous")
	}
	if curve.Validate(ec.Point{X: x, Y: y}) == nil {
		t.Fatal("(x, y) passes Validate; the case is vacuous")
	}
	if d.subgroupX(x) {
		t.Fatalf("x-only check accepts %v, outside the subgroup", x)
	}
	if d.subgroupX(gf2m.Zero()) {
		t.Fatal("x-only check accepts x = 0")
	}
	p := curve.RandomPoint(rng.NewDRBG(5).Uint64)
	if !d.subgroupX(p.X) || !d.subgroupX(curve.Gx) {
		t.Fatal("x-only check refuses the x of a subgroup point")
	}
}
