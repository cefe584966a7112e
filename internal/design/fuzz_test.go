package design

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseGrid feeds arbitrary bytes to ParseGrid, the decoder behind
// designlab -grid, which reads a user's file. The input must be
// refused with a design: error and no points, or parse to points that
// marshal and re-parse to the same points, every one of which builds
// its stack.
func FuzzParseGrid(f *testing.F) {
	full, err := json.Marshal([]Point{Defaults()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, seed := range []string{
		`[{"name": "base"}, {"name": "fast", "digit_size": 16}, {"name": "hard", "logic": "wddl", "rpc": true}]`,
		`[{"seed": 0, "trng_seed": 0, "rpc": false, "balanced_mux": false, "input_isolation": false, "glitch_free": false, "residual_imbalance": 0, "noise_sigma": 0}]`,
		`[{}, {"curve": "P-256"}]`,
		`[{"digit_size": 99}]`,
		`[{"digit_sze": 8}]`,
		`[null]`,
		`[]`,
		`{"digit_size": 4}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		pts, err := ParseGrid(in)
		if err != nil {
			if pts != nil || !strings.HasPrefix(err.Error(), "design: ") {
				t.Fatalf("refusal %q (points %+v) is not a design: error", err, pts)
			}
			return
		}
		out, err := json.Marshal(pts)
		if err != nil {
			t.Fatalf("accepted grid does not marshal: %v", err)
		}
		back, err := ParseGrid(out)
		if err != nil {
			t.Fatalf("re-parsing the marshaled grid %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, pts) {
			t.Fatalf("round trip changed the grid:\n got %+v\nwant %+v", back, pts)
		}
		for i, p := range pts {
			if _, err := p.Build(); err != nil {
				t.Fatalf("point %d parses but does not build: %v", i, err)
			}
		}
	})
}
