package coproc

import (
	"strings"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/modn"
	"medsec/internal/rng"
)

// maskTestSeed derives a per-lane mask-stream seed, distinct from the
// device TRNG stream the same lane draws.
func maskTestSeed(l int) uint64 { return 7777 ^ (uint64(l)+1)*0xbf58476d1ce4e5b9 }

// captureMasked runs one whole masked trace on the per-trace CPU.
func captureMasked(t *testing.T, p *Program, key modn.Scalar, seed, maskSeed uint64) ([]CycleEvent, [NumRegs]gf2m.Element, int) {
	t.Helper()
	curve := ec.K163()
	cpu := NewCPU(DefaultTiming())
	cpu.Rand = rng.NewDRBG(seed).Uint64
	cpu.Masked = true
	cpu.MaskRand = rng.NewDRBG(maskSeed).Uint64
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	var evs []CycleEvent
	cpu.Probe = func(ev *CycleEvent) { evs = append(evs, *ev) }
	n, err := cpu.Run(p, key)
	if err != nil {
		t.Fatalf("masked cpu run: %v", err)
	}
	return evs, cpuRegs(cpu), n
}

// captureMaskedWindow runs one masked trace on a width-1 LaneCPU with a
// quiet prologue and a MaxCycles window.
func captureMaskedWindow(t *testing.T, p *Program, key modn.Scalar, seed, maskSeed uint64, quiet, max int) []CycleEvent {
	t.Helper()
	curve := ec.K163()
	lc := NewLaneCPU(DefaultTiming())
	lc.Masked = true
	lc.QuietCycles, lc.MaxCycles = quiet, max
	var evs []CycleEvent
	runs := []LaneRun{{
		Key:      key,
		Rand:     rng.NewDRBG(seed).Uint64,
		MaskRand: rng.NewDRBG(maskSeed).Uint64,
		Sink:     func(ev *CycleEvent) { evs = append(evs, *ev) },
		Consts:   OperandConstants(curve.Gx, curve.B, curve.Gy),
	}}
	if _, err := lc.Run(p, runs); err != nil && err != ErrStopped {
		t.Fatalf("masked window: %v", err)
	}
	return evs
}

// TestMaskedMatchesUnmaskedArchitecture pins the core masking contract:
// the masked datapath changes only the physical activity (event fields),
// never the architectural behaviour — identical results, cycle counts,
// and device-TRNG draw schedule for every opcode and for a full ladder.
func TestMaskedMatchesUnmaskedArchitecture(t *testing.T) {
	progs := opcodePrograms()
	progs["ladder"] = BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	curve := ec.K163()
	for name, p := range progs {
		key := laneTestKey(t, 1)
		run := func(masked bool) ([NumRegs]gf2m.Element, int, int) {
			cpu := NewCPU(DefaultTiming())
			drbg := rng.NewDRBG(42)
			draws := 0
			cpu.Rand = func() uint64 { draws++; return drbg.Uint64() }
			if masked {
				cpu.Masked = true
				cpu.MaskRand = rng.NewDRBG(7).Uint64
			}
			cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
			n, err := cpu.Run(p, key)
			if err != nil {
				t.Fatalf("%s masked=%v: %v", name, masked, err)
			}
			return cpuRegs(cpu), n, draws
		}
		plainRegs, plainN, plainDraws := run(false)
		maskRegs, maskN, maskDraws := run(true)
		if plainRegs != maskRegs {
			t.Fatalf("%s: masked register file diverged from unmasked", name)
		}
		if plainN != maskN {
			t.Fatalf("%s: masked cycles %d, unmasked %d", name, maskN, plainN)
		}
		if plainDraws != maskDraws {
			t.Fatalf("%s: masked consumed %d device-TRNG draws, unmasked %d", name, maskDraws, plainDraws)
		}
	}
}

// TestMaskedEventInvariants checks the share-level activity fields obey
// the masked encoding: RegsClocked doubles on every register update and
// no event ever carries the raw (unmasked) write distance when the
// masks differ from zero.
func TestMaskedEventInvariants(t *testing.T) {
	p := opcodePrograms()["cswap"]
	evs, _, _ := captureMasked(t, p, laneTestKey(t, 0), 42, 7)
	for i, ev := range evs {
		switch ev.Op {
		case OpLoadConst:
			if ev.RegsClocked != 2 {
				t.Fatalf("event %d: masked write clocked %d regs, want 2", i, ev.RegsClocked)
			}
		case OpCSwap:
			if ev.RegsClocked != 4 {
				t.Fatalf("event %d: masked CSWAP clocked %d regs, want 4", i, ev.RegsClocked)
			}
		}
	}
}

// TestMaskedLaneMatchesSerial pins the masked lane executor at several
// widths against the masked per-trace CPU: per-opcode and full-ladder
// event streams, cycle counts, and register files bit-identical per
// lane.
func TestMaskedLaneMatchesSerial(t *testing.T) {
	progs := opcodePrograms()
	if !testing.Short() {
		progs["ladder"] = BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	}
	curve := ec.K163()
	for name, p := range progs {
		for _, nLanes := range []int{1, 3, 8} {
			lc := NewLaneCPU(DefaultTiming())
			lc.Masked = true
			streams := make([][]CycleEvent, nLanes)
			runs := make([]LaneRun, nLanes)
			for l := 0; l < nLanes; l++ {
				l := l
				runs[l] = LaneRun{
					Key:      laneTestKey(t, l),
					Rand:     rng.NewDRBG(laneTestSeed(l)).Uint64,
					MaskRand: rng.NewDRBG(maskTestSeed(l)).Uint64,
					Sink:     func(ev *CycleEvent) { streams[l] = append(streams[l], *ev) },
					Consts:   OperandConstants(curve.Gx, curve.B, curve.Gy),
				}
			}
			laneN, err := lc.Run(p, runs)
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", name, nLanes, err)
			}
			for l := 0; l < nLanes; l++ {
				want, wantRegs, serialN := captureMasked(t, p, laneTestKey(t, l), laneTestSeed(l), maskTestSeed(l))
				diffStreams(t, "masked-"+name, streams[l], want)
				if laneN != serialN {
					t.Fatalf("%s: masked lane cycles %d, serial %d", name, laneN, serialN)
				}
				if got := regsOf(lc, l); got != wantRegs {
					t.Fatalf("%s lane %d/%d: masked register file diverged", name, l, nLanes)
				}
			}
		}
	}
}

// TestMaskedQuietPrefixMatchesEvented pins the quiet-prologue draw
// parity: a masked run with QuietCycles set must consume exactly the
// same mask stream as the evented execution, so the windowed event
// stream matches the corresponding slice of a full evented run.
func TestMaskedQuietPrefixMatchesEvented(t *testing.T) {
	p := BuildLadderProgram(ProgramOptions{RPC: false, XOnly: true})
	start, end := p.IterationWindow(DefaultTiming(), 160, 158)
	key := laneTestKey(t, 0)
	full, _, _ := captureMasked(t, p, key, 42, 7)
	win := captureMaskedWindow(t, p, key, 42, 7, start, end)
	diffStreams(t, "masked-window", win, full[start:end])
}

// TestMaskedRequiresMaskRand pins the configuration errors: masked
// execution (per-trace CPU and lane) without a mask TRNG source must
// fail loudly, not silently run unmasked.
func TestMaskedRequiresMaskRand(t *testing.T) {
	p := opcodePrograms()["add"]
	curve := ec.K163()

	cpu := NewCPU(DefaultTiming())
	cpu.Masked = true
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	if _, err := cpu.Run(p, benchScalar); err == nil || !strings.Contains(err.Error(), "mask TRNG") {
		t.Fatalf("CPU masked run without MaskRand: got %v", err)
	}

	lc := NewLaneCPU(DefaultTiming())
	lc.Masked = true
	runs := []LaneRun{{Key: benchScalar, Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}}
	if _, err := lc.Run(p, runs); err == nil || !strings.Contains(err.Error(), "mask TRNG") {
		t.Fatalf("lane masked run without MaskRand: got %v", err)
	}
}
