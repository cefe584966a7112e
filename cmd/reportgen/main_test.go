package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medsec/internal/area"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/rng"
	"medsec/internal/sca"
	"medsec/internal/soc"
)

// TestReportPinnedAndVerdictsHold computes every experiment once at
// seed 1. The rendered report must equal the committed REPORT.md byte
// for byte, bar the timing line. Each paper verdict is then checked on
// the computed values, never on the text, so a wrong result cannot
// pass by regenerating REPORT.md.
func TestReportPinnedAndVerdictsHold(t *testing.T) {
	r, err := compute(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	got := render(r, nil, 0)
	if g, w := maskTiming(got), maskTiming(want); !bytes.Equal(g, w) {
		gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(w, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var gi, wi []byte
			if i < len(gl) {
				gi = gl[i]
			}
			if i < len(wl) {
				wi = wl[i]
			}
			if !bytes.Equal(gi, wi) {
				t.Errorf("REPORT.md line %d differs (regenerate with `go run ./cmd/reportgen -seed 1`):\n got %q\nwant %q", i+1, gi, wi)
				break
			}
		}
	}

	ladderRises := true
	for i := 1; i < len(r.e13); i++ {
		ladderRises = ladderRises && r.e13[i].cycles > r.e13[i-1].cycles
	}
	var e13Chip int
	for _, f := range r.e13 {
		if f.m == gf2m.M {
			e13Chip = f.cycles
		}
	}
	// The x-only post-processing is the inversion and one MUL, so it
	// holds E13's addition-chain model to the microcode.
	_, _, xOnlyPost := ladderSections(coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true, XOnly: true}))
	xOnlyPost[coproc.OpMul]--
	var ecc, sha float64
	for _, m := range r.e6 {
		switch m.Module {
		case "ECC co-processor (d=4)":
			ecc = m.GE
		case "SHA-1":
			sha = m.GE
		}
	}
	e7 := r.e7.rows
	// E14 must sweep the ladder's first iteration and reach the
	// program's last cycle, so the post-processing is graded too.
	tim := coproc.DefaultTiming()
	prog := coproc.BuildLadderProgram(coproc.ProgramOptions{RPC: true})
	firstIter, _ := prog.IterationWindow(tim, 162, 162)
	var e14Runs, e14Escaped int
	var e14First, e14ToEnd bool
	for _, win := range r.e14 {
		e14Runs += win.rep.Runs()
		e14Escaped += win.rep.Escaped
		e14First = e14First || win.rep.WindowStart == firstIter
		e14ToEnd = e14ToEnd || win.rep.WindowEnd == prog.CycleCount(tim)
	}
	// E3 prices each double-and-add key from the microcode's costs.
	// Its first five keys, drawn from E3's stream at seed 1, must cost
	// what the programs they build count, one key per TimingAttack.
	keys, priced := rng.NewDRBG(1+4).Uint64, rng.NewDRBG(1+4).Uint64
	var e3Priced [5][2]int
	e3Exact := true
	for i := range e3Priced {
		k := ec.K163().Order.RandNonZero(keys)
		da, err := coproc.BuildDoubleAndAddProgram(k)
		if err != nil {
			t.Fatal(err)
		}
		e3Priced[i] = [2]int{sca.TimingAttack(ec.K163(), tim, 1, priced).DAMinCycles, da.CycleCount(tim)}
		e3Exact = e3Exact && e3Priced[i][0] == e3Priced[i][1]
	}
	for _, v := range []struct {
		claim string
		ok    bool
		got   interface{}
	}{
		{"E1: 50.4 µW within 0.6 µW", math.Abs(r.e1.AvgPowerW*1e6-50.4) <= 0.6, r.e1.AvgPowerW * 1e6},
		{"E1: 5.1 µJ per PM within 0.12 µJ", math.Abs(r.e1.EnergyJ*1e6-5.1) <= 0.12, r.e1.EnergyJ * 1e6},
		{"E1: 9.8 PM/s within 0.15", math.Abs(1/r.e1.DurationS-9.8) <= 0.15, 1 / r.e1.DurationS},
		{"E2: DPA with RPC off succeeds by 300 traces", r.e2.off > 0 && r.e2.off <= 300, r.e2.off},
		{"E2: DPA with known RPC masks succeeds", r.e2.known > 0, r.e2.known},
		{"E2: DPA with secret RPC masks fails at 20 000 traces", e2SecretTraces == 20000 && !r.e2.secret.Success(), r.e2.secret.BitAccuracy()},
		{"E3: ladder cycle variance is 0", r.e3.LadderVariance == 0, r.e3.LadderVariance},
		{"E3: 5 keys' priced latency equals their programs' CycleCount", e3Exact, e3Priced},
		{"E4: the area·energy optimum is d = 4", r.e4.opt == 4, r.e4.opt},
		{"E5: 6 loop registers, fewer than Co-Z's", r.e5.loop == 6 && r.e5.loop < area.CoZRegisters, r.e5.loop},
		{"E6: ECC within 10% of 12 kGE", math.Abs(ecc-12000) <= 1200, ecc},
		{"E6: SHA-1 is 5 527 GE", sha == 5527, sha},
		{"E7: the crossover lies inside the sweep", e7[0].Meters < r.e7.crossover && r.e7.crossover < e7[len(e7)-1].Meters &&
			e7[0].Cheapest == r.e7.sym && e7[len(e7)-1].Cheapest == r.e7.pk, r.e7.crossover},
		{"E8: Schnorr links (advantage ≥ 0.9)", r.e8.schnorr.Advantage >= 0.9, r.e8.schnorr.Advantage},
		{"E8: Peeters–Hermans hides (advantage ≤ 0.2)", r.e8.ph.Advantage <= 0.2, r.e8.ph.Advantage},
		{"E8: a corrupt reader links (advantage ≥ 0.9)", r.e8.corrupt.Advantage >= 0.9, r.e8.corrupt.Advantage},
		{"E9: unbalanced muxes fall to one trace", r.e9.unbalanced >= 0.95, r.e9.unbalanced},
		{"E9: data-dependent clock gating falls to one trace", r.e9.gated >= 0.95, r.e9.gated},
		{"E9: the protected chip resists one trace", r.e9.protected <= 0.65, r.e9.protected},
		{"E10: one-trace SPA reads the key without the countermeasure", r.e10[0].spaAccuracy >= 0.95 &&
			r.e10[1].spaAccuracy >= 0.95 && r.e10[2].spaAccuracy >= 0.95, r.e10},
		{"E10: one-trace SPA fails with it", r.e10[3].spaAccuracy <= 0.65 &&
			r.e10[4].spaAccuracy <= 0.65 && r.e10[5].spaAccuracy <= 0.65, r.e10},
		{"E10: WDDL costs at least 2× the chip's energy", r.e10[4].vsChip >= 2, r.e10[4].vsChip},
		{"E10: SABL costs at least 2× the chip's energy", r.e10[5].vsChip >= 2, r.e10[5].vsChip},
		{"E11: server-first ordering wastes fewer PMs", r.e11.serverFirst < r.e11.idFirst, r.e11},
		{"E12: RPC off leaks", r.e12.off.Leaks, r.e12.off.MaxT},
		{"E12: the protected chip passes", !r.e12.on.Leaks, r.e12.on.MaxT},
		{"E13: cost rises with m", ladderRises, r.e13},
		{"E13: the m = 163 row equals E1 and the program's CycleCount", e13Chip == r.e1.Cycles &&
			e13Chip == prog.CycleCount(tim), e13Chip},
		{"E13: the m = 163 inversion model is the x-only post-processing less its MUL",
			reflect.DeepEqual(inversionMix(gf2m.M), xOnlyPost), [2]opMix{inversionMix(gf2m.M), xOnlyPost}},
		{"E14: no fault escapes validation", e14Escaped == 0, e14Escaped},
		{"E14: at least 2 000 injections", e14Runs >= 2000, e14Runs},
		{"E14: a window starts at ladder iteration 162", e14First, firstIter},
		{"E14: a window ends at the program's last cycle", e14ToEnd, prog.CycleCount(tim)},
		{"E15: no command script exposes the key's bytes", r.e15.exposures == 0, r.e15.exposures},
		{"E15: k·P and x-only k·P each take one cycle count", len(r.e15.cycles[0]) == 1 && len(r.e15.cycles[1]) == 1, r.e15.cycles},
		{"E15: a zero key through the x-only path faults", r.e15.zeroXOnly == soc.StatusFault, r.e15.zeroXOnly},
		{"E16: the PUF key is stable", r.e16.stable, r.e16.stable},
		{"E16: intra-distance under 10%", r.e16.intra < 0.10, r.e16.intra},
		{"E16: inter-distance within 40–60%", r.e16.inter >= 0.40 && r.e16.inter <= 0.60, r.e16.inter},
		{"E17: first-order TVLA passes on the masked chip", !r.e17.masked1.Leaks, r.e17.masked1.MaxT},
		{"E17: second-order TVLA convicts it", r.e17.masked2.Leaks, r.e17.masked2.MaxT},
		{"E17: centered-product CPA convicts it", r.e17.centeredN > 0, r.e17.centeredN},
		{"E17: first-order CPA fails on it", !r.e17.firstOrder.Success(), r.e17.firstOrder.BitAccuracy()},
	} {
		if !v.ok {
			t.Errorf("%s: measured %+v", v.claim, v.got)
		}
	}

	// A failed write is the run's error, not a silent exit 0.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := writeReport("/dev/full", r, nil, 0); err == nil {
			t.Error("writing the report to /dev/full returned no error")
		}
	}
}

// maskTiming blanks the wall-clock "Report generated in" line.
func maskTiming(report []byte) []byte {
	lines := bytes.Split(report, []byte("\n"))
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte("Report generated in ")) {
			lines[i] = nil
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestManifestAppendixFoldsDesignlabFrontier loads a frontier manifest
// that designlab's 2×2 grid (-d 1,4 -logic cmos,wddl -rpc on -reps 4
// -tvla 20) wrote, through the loader -manifests uses, and folds it
// into the report appendix: the run gets a provenance row and a
// `### designlab frontier` section holding its point and metrics.
func TestManifestAppendixFoldsDesignlabFrontier(t *testing.T) {
	mans, err := loadManifests(filepath.Join("testdata", "frontier_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeManifestAppendix(func(format string, a ...interface{}) { fmt.Fprintf(&b, format+"\n", a...) }, mans)
	got := b.String()
	for _, want := range []string{
		"| `frontier_00_d1-cmos-rpc_on.json` | designlab frontier | 1 |",
		"### designlab frontier (`frontier_00_d1-cmos-rpc_on.json`)",
		`"name":"d1-cmos-rpc_on"`,
		"| designlab_frontier_points | 1 |",
		"| designlab_session_energy_j | 0.000152046 |",
		"| designlab_tvla_max_t | 5.01799 |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("appendix holds no %q:\n%s", want, got)
		}
	}
}
