package coproc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"medsec/internal/ec"
	"medsec/internal/rng"
)

// goldenTraceHash is the SHA-256 over the full CycleEvent stream of
// one protected (RPC) point multiplication on the K-163 generator with
// a fixed scalar and TRNG seed. It was pinned on the pre-optimization
// schoolbook/bit-serial simulator (PR 3) and is the repo's
// bit-identical contract for the hot-path rewrites: Karatsuba field
// multiplication, the precomputed MALU digit pipeline and the lane
// interpreter must all reproduce this exact stream, cycle by cycle,
// field by field.
const goldenTraceHash = "67f8b3da5321373cec770bf5d04d3c75dcddabe361aa72968385c1b9ac36e7f8"

// eventHasher folds a CycleEvent stream into a canonical SHA-256:
// every observable field, fixed order, fixed width.
type eventHasher struct {
	st  hash.Hash
	buf [14 * 8]byte
}

func newEventHasher() *eventHasher {
	return &eventHasher{st: sha256.New()}
}

func (e *eventHasher) add(ev *CycleEvent) {
	le := binary.LittleEndian
	le.PutUint64(e.buf[0:], uint64(ev.Cycle))
	le.PutUint64(e.buf[8:], uint64(ev.InstrIndex))
	le.PutUint64(e.buf[16:], uint64(ev.Op))
	le.PutUint64(e.buf[24:], uint64(int64(ev.Iteration)))
	le.PutUint64(e.buf[32:], uint64(int64(ev.KeyBit)))
	le.PutUint64(e.buf[40:], uint64(ev.CtrlSel))
	le.PutUint64(e.buf[48:], uint64(ev.WriteHD))
	le.PutUint64(e.buf[56:], uint64(ev.Write01))
	le.PutUint64(e.buf[64:], uint64(ev.SwapHD))
	le.PutUint64(e.buf[72:], uint64(ev.BusHW))
	le.PutUint64(e.buf[80:], uint64(ev.AccHD))
	le.PutUint64(e.buf[88:], uint64(ev.Acc01))
	le.PutUint64(e.buf[96:], uint64(ev.DigitHW))
	le.PutUint64(e.buf[104:], uint64(ev.RegsClocked))
	e.st.Write(e.buf[:])
}

func (e *eventHasher) sum() string {
	return hex.EncodeToString(e.st.Sum(nil))
}

// goldenRun executes the pinned protected point multiplication on the
// per-trace CPU with the given probe wiring and returns the cycle
// count.
func goldenRun(t *testing.T, attach func(cpu *CPU)) int {
	t.Helper()
	curve := ec.K163()
	prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
	cpu := NewCPU(DefaultTiming())
	cpu.Rand = rng.NewDRBG(42).Uint64
	cpu.SetOperandConstants(curve.Gx, curve.B, curve.Gy)
	attach(cpu)
	n, err := cpu.Run(prog, benchScalar)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return n
}

// TestGoldenTraceHash pins the full per-cycle event stream of a
// protected point multiplication. If this test fails, an optimization
// changed the simulator's observable microarchitectural behaviour —
// which invalidates every power number, SCA result and golden ledger
// in the repo. Fix the optimization, never the constant.
func TestGoldenTraceHash(t *testing.T) {
	check := func(t *testing.T, got string, cycles int) {
		t.Helper()
		if cycles == 0 {
			t.Fatal("no cycles simulated")
		}
		if got != goldenTraceHash {
			t.Fatalf("event stream hash changed:\n  got    %s\n  pinned %s\n(%d cycles)", got, goldenTraceHash, cycles)
		}
	}
	// The per-trace CPU's Probe.
	t.Run("probe", func(t *testing.T) {
		eh := newEventHasher()
		n := goldenRun(t, func(cpu *CPU) { cpu.Probe = eh.add })
		check(t, eh.sum(), n)
	})
	// The golden trace as the middle lane of a 3-wide batch whose other
	// lanes carry different keys and TRNG streams.
	t.Run("batch", func(t *testing.T) {
		curve := ec.K163()
		prog := BuildLadderProgram(ProgramOptions{RPC: true, XOnly: true})
		eh := newEventHasher()
		runs := make([]LaneRun, 3)
		for l := range runs {
			runs[l] = LaneRun{Key: laneTestKey(t, l+1), Rand: rng.NewDRBG(laneTestSeed(l)).Uint64,
				Consts: OperandConstants(curve.Gx, curve.B, curve.Gy)}
		}
		runs[1].Key, runs[1].Rand, runs[1].Sink = benchScalar, rng.NewDRBG(42).Uint64, eh.add
		n, err := NewLaneCPU(DefaultTiming()).Run(prog, runs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, eh.sum(), n)
	})
}
