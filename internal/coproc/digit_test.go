package coproc

import (
	"math/bits"
	"math/rand"
	"testing"

	"medsec/internal/gf2m"
	"medsec/internal/rng"
)

// extractDigitRef is the original bit-loop digit extraction, the
// reference the word-level extractDigit is cross-checked against.
func extractDigitRef(e gf2m.Element, j, d int) uint64 {
	lo := j * d
	var v uint64
	for i := 0; i < d; i++ {
		v |= uint64(e.Bit(lo+i)) << i
	}
	return v
}

// mulSmall returns a * digit mod f where digit is a polynomial of
// degree < d (d <= 61): the MALU's per-cycle partial product, computed
// by rebuilding every shifted operand — the reference for the
// interpreter's nibble table.
func mulSmall(a gf2m.Element, digit uint64) gf2m.Element {
	var acc gf2m.Element
	for i := 0; digit != 0; i++ {
		if digit&1 == 1 {
			acc = gf2m.Add(acc, gf2m.ShlMod(a, uint(i)))
		}
		digit >>= 1
	}
	return acc
}

// shiftTableProduct is the MALU's former partial product, kept as an
// oracle: the XOR, over the digit's set bits i, of the shift table
// S[i] = a·x^i mod f built once per instruction.
func shiftTableProduct(a gf2m.Element, digit uint64, d int) gf2m.Element {
	var shifts [maxDigitSize]gf2m.Element
	shifts[0] = a
	for i := 1; i < d; i++ {
		shifts[i] = gf2m.ShlMod(shifts[i-1], 1)
	}
	var p gf2m.Element
	for dg := digit; dg != 0; dg &= dg - 1 {
		p = gf2m.Add(p, shifts[bits.TrailingZeros64(dg)])
	}
	return p
}

func randomElement(r *rand.Rand) gf2m.Element {
	return gf2m.FromWords(r.Uint64(), r.Uint64(), r.Uint64()&(1<<35-1))
}

// TestExtractDigitMatchesRef pins the word-level digit extraction
// against the original bit-loop, for every digit size the MALU model
// supports and every digit position, on random and corner operands.
func TestExtractDigitMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(0xd161))
	corners := []gf2m.Element{
		{},
		gf2m.One(),
		gf2m.FromWords(^uint64(0), ^uint64(0), 1<<35-1),
		gf2m.FromWords(0x8000000000000000, 1, 1<<34),
	}
	for d := 1; d <= maxDigitSize; d++ {
		digits := (163 + d - 1) / d
		check := func(e gf2m.Element) {
			for j := 0; j < digits; j++ {
				got := extractDigit(&e, j, d)
				want := extractDigitRef(e, j, d)
				if got != want {
					t.Fatalf("d=%d j=%d: extractDigit=%#x, ref=%#x (e=%v)", d, j, got, want, e)
				}
			}
		}
		for _, e := range corners {
			check(e)
		}
		for i := 0; i < 8; i++ {
			check(randomElement(r))
		}
	}
}

// TestShiftTablePartialProductMatchesMulSmall pins the partial product
// runMALULane XORs into the accumulator every digit cycle — the nibble
// table it builds per instruction — against mulSmall and the former
// shift-table product, for every digit size, on random digits and the
// corner digits (zero, all ones, each single bit). One table serves
// every size, from d = 61 down, as a LaneCPU reuses its table across
// instructions and timings.
func TestShiftTablePartialProductMatchesMulSmall(t *testing.T) {
	r := rand.New(rand.NewSource(0xa15))
	var tab nibbleTable
	for d := maxDigitSize; d >= 1; d-- {
		full := uint64(1)<<uint(d) - 1
		for trial := 0; trial < 16; trial++ {
			a := randomElement(r)
			tab.build(a, d)
			digits := []uint64{0, full, r.Uint64() & full, r.Uint64() & full}
			for i := 0; i < d; i++ {
				digits = append(digits, 1<<uint(i))
			}
			for _, digit := range digits {
				p0, p1, p2 := tab.product(digit, d)
				got := gf2m.Element{p0, p1, p2}
				if want := mulSmall(a, digit); !got.Equal(want) {
					t.Fatalf("d=%d digit=%#x: nibble-table product diverged from mulSmall", d, digit)
				}
				if want := shiftTableProduct(a, digit, d); !got.Equal(want) {
					t.Fatalf("d=%d digit=%#x: nibble-table product diverged from the shift table", d, digit)
				}
			}
		}
	}
}

// FuzzMALUMatchesReference runs one evented MUL or SQR of any operands
// at any digit size, plain or masked (mask stream DRBG(7)), and holds
// every digit cycle's event to the reference recurrence
// acc' = gf2m.ShlMod(acc, d) + mulSmall(a, digit), its activity to
// gf2m.HammingDistance and zeroToOne, and the writeback to gf2m.Mul.
func FuzzMALUMatchesReference(f *testing.F) {
	f.Add(uint64(0x0123456789abcdef), uint64(0xfedcba9876543210), uint64(0x7ffffffff),
		uint64(0xdeadbeef), uint64(1), uint64(1<<34), uint8(3), false, false)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint8(60), false, true)
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(0xbf58476d1ce4e5b9), uint64(0x94d049bb1331),
		uint64(0), uint64(0), uint64(0), uint8(7), true, true)
	f.Add(uint64(2), uint64(0), uint64(0), uint64(3), uint64(0), uint64(0), uint8(0), false, true)
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 uint64, dsel uint8, sqr, masked bool) {
		d := int(dsel)%maxDigitSize + 1
		a, b := gf2m.FromWords(a0, a1, a2), gf2m.FromWords(b0, b1, b2)
		op, rb := OpMul, uint8(1)
		if sqr {
			op, rb, b = OpSqr, 0, a
		}
		prog := &Program{Instrs: []Instr{
			{Op: OpLoadConst, Rd: 0, Ra: ConstX, KeyBit: -1, Iteration: -1},
			{Op: OpLoadConst, Rd: 1, Ra: ConstB, KeyBit: -1, Iteration: -1},
			{Op: op, Rd: 2, Ra: 0, Rb: rb, KeyBit: -1, Iteration: -1},
		}}
		tim := Timing{DigitSize: d, MulOverhead: 2, SingleCycle: 1}
		lc := NewLaneCPU(tim)
		lc.Masked = masked
		var evs []CycleEvent
		runs := []LaneRun{{
			Sink:   func(ev *CycleEvent) { evs = append(evs, *ev) },
			Consts: OperandConstants(a, b, gf2m.Zero()),
		}}
		if masked {
			runs[0].MaskRand = rng.NewDRBG(7).Uint64
		}
		if _, err := lc.Run(prog, runs); err != nil {
			t.Fatal(err)
		}
		if want := 2 + tim.InstrCycles(op); len(evs) != want {
			t.Fatalf("d=%d: %d events, want %d", d, len(evs), want)
		}
		// The reference replays the mask stream: one mask per load, then
		// one per digit cycle, then the writeback's.
		ref := rng.NewDRBG(7)
		draw := func() gf2m.Element { return gf2m.FromWords(ref.Uint64(), ref.Uint64(), ref.Uint64()) }
		var mb gf2m.Element
		if masked {
			ma := draw()
			if mb = draw(); sqr {
				mb = ma
			}
		}
		var acc, am gf2m.Element
		cycle := 2 + tim.MulOverhead - 1
		for j := tim.Digits() - 1; j >= 0; j, cycle = j-1, cycle+1 {
			digit := extractDigitRef(b, j, d)
			next := gf2m.Add(gf2m.ShlMod(acc, uint(d)), mulSmall(a, digit))
			want := CycleEvent{Cycle: cycle, InstrIndex: 2, Op: op, Iteration: -1, KeyBit: -1,
				AccHD: gf2m.HammingDistance(acc, next), Acc01: zeroToOne(acc, next),
				DigitHW: bits.OnesCount64(digit), RegsClocked: 1}
			if masked {
				nm := draw()
				want.AccHD = gf2m.HammingDistance(gf2m.Add(acc, am), gf2m.Add(next, nm)) + gf2m.HammingDistance(am, nm)
				want.Acc01 = zeroToOne(gf2m.Add(acc, am), gf2m.Add(next, nm)) + zeroToOne(am, nm)
				want.DigitHW = bits.OnesCount64(extractDigitRef(gf2m.Add(b, mb), j, d)) +
					bits.OnesCount64(extractDigitRef(mb, j, d))
				want.RegsClocked = 2
				am = nm
			}
			want.BusHW = want.DigitHW
			if evs[cycle] != want {
				t.Fatalf("d=%d op=%v masked=%v digit %d:\n got  %+v\n want %+v", d, op, masked, j, evs[cycle], want)
			}
			acc = next
		}
		if !acc.Equal(gf2m.Mul(a, b)) {
			t.Fatalf("d=%d op=%v: reference recurrence ended at %v, not a·b", d, op, acc)
		}
		if got := lc.Result(0, 2); !got.Equal(acc) {
			t.Fatalf("d=%d op=%v masked=%v: MALU wrote %v, want %v", d, op, masked, got, acc)
		}
		wb := CycleEvent{Cycle: cycle, InstrIndex: 2, Op: op, Iteration: -1, KeyBit: -1,
			WriteHD: acc.Weight(), Write01: acc.Weight(), RegsClocked: 1}
		if masked {
			setMaskedWrite(&wb, gf2m.Zero(), gf2m.Zero(), acc, draw())
			wb.RegsClocked = 2
		}
		if evs[cycle] != wb {
			t.Fatalf("d=%d op=%v masked=%v writeback:\n got  %+v\n want %+v", d, op, masked, evs[cycle], wb)
		}
	})
}
