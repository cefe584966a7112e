package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinyScale runs every workload in seconds while keeping its verdict:
// the masked target still leaks at order 2 at 1 000 traces per set.
var tinyScale = scale{tvlaPerSet: 50, dpaSizes: []int{25, 50, 100}, tvla2PerSet: 1000, fleetDevices: 8}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, --seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %q, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer\n got %+v\nwant %+v", b.PerLayer, perLayer)
	}
}

// resultLine prints the report and returns its last line, parsed.
func resultLine(t *testing.T, c config, rp *report) result {
	t.Helper()
	var out bytes.Buffer
	if err := printReport(&out, c, rp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsTiny runs every workload untraced on one worker and
// traced on two, and checks that both pass, print exactly
// BENCHMARK.json's metrics, and agree on the result digest.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				c := config{w: w, env: env{seed: 1, workers: 1, scale: tinyScale}, minWarm: 1, traced: traced}
				want := b.EndToEnd
				if traced {
					c.env.workers = 2
					want = b.PerLayer
				}
				rp, err := measure(c)
				if err != nil {
					t.Fatal(err)
				}
				res := resultLine(t, c, rp)
				if !res.Correct || res.Failed != 0 || res.Attempted != len(rp.reps) {
					for _, s := range rp.reps {
						t.Logf("rep %d: %s: %v", s.index, s.out.note, s.err)
					}
					t.Fatalf("traced=%v: correct=%v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if got, want := metricNames(res.Metrics), defNames(want); !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: printed metrics %q, BENCHMARK.json has %q", traced, got, want)
				}
				if !traced {
					for n, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("%s = %v, want > 0", n, m.Value)
						}
					}
				}
				for _, s := range rp.reps {
					digests = append(digests, s.out.digest)
				}
			}
			for _, d := range digests[1:] {
				if d != digests[0] {
					t.Fatalf("digests differ across repetitions, workers and tracing: %q", digests)
				}
			}
		})
	}
}

func TestForgedGoldenFails(t *testing.T) {
	w, err := workloadByName("tvla_rpc")
	if err != nil {
		t.Fatal(err)
	}
	forged := map[string]string{w.name: strings.Repeat("0", 64)}
	c := config{w: w, env: env{seed: 1, workers: 2, scale: tinyScale}, minWarm: 1, golden: forged}
	rp, err := measure(c)
	if err != nil {
		t.Fatal(err)
	}
	if res := resultLine(t, c, rp); res.Correct || res.Failed != res.Attempted {
		t.Fatalf("a forged golden digest passed: correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if err := checkGolden(map[string]string{}, w.name, rp.reps[0].out.digest); err == nil {
		t.Error("a golden file without the workload's digest passed")
	}
}

func TestCommittedGoldenCoversEveryWorkload(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(g.Digests[w.name]) != 64 {
			t.Errorf("golden digest for %s: %q", w.name, g.Digests[w.name])
		}
	}
	if len(g.Digests) != len(workloads) {
		t.Errorf("golden file has %d digests for %d workloads", len(g.Digests), len(workloads))
	}
}
