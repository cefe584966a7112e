// Command bench is the repository's end-to-end benchmark. It drives four
// paper-scale workloads through the entry points the lab tools call —
// design.Point.Build and Stack.Target, sca.TVLA and sca.TVLA2,
// Target.ExtendCampaign with sca.CPA, and fleet.Run — checks each
// repetition against the paper's verdict and a result digest, and
// prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"throughput": {"value": 6131.2, "unit": "1/s"}, ...}}
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload tvla_rpc --seed 1 --seconds 15 --trace 0
//
// --trace 1 reports the per-layer ledger instead of the end-to-end
// metrics, and --trace-out writes the spans, registry snapshot and
// probe table to a file. Without --workload every workload runs, each
// in its own process. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

//go:embed testdata/golden.json
var goldenJSON []byte

// golden is the committed result digest of every workload at paper
// scale for one seed.
type golden struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of warm repetitions after set-up and the cold repetition")
	traced := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write spans, registry snapshot, probe table and layer estimates to this JSON file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	case *traceOut != "" && *traced == 0:
		return errors.New("--trace-out needs --trace 1")
	case *seconds < 0:
		return fmt.Errorf("--seconds %d: want at least 0", *seconds)
	}
	if *name == "" {
		return runAll(stdout, stderr, *seed, *seconds, *traced, *traceOut)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	c := config{
		w:       w,
		env:     env{seed: *seed, workers: runtime.NumCPU(), scale: paperScale},
		seconds: time.Duration(*seconds) * time.Second,
		minWarm: 3,
		traced:  *traced == 1,
	}
	if *seed == g.Seed {
		c.golden = g.Digests
	}
	rp, err := measure(c)
	if err != nil {
		return err
	}
	if err := printReport(stdout, c, rp); err != nil {
		return err
	}
	if *traceOut != "" {
		if err := rp.doc.write(*traceOut); err != nil {
			return err
		}
	}
	if !rp.res.Correct {
		return fmt.Errorf("%s: %d of %d repetitions failed a check", w.name, rp.res.Failed, rp.res.Attempted)
	}
	return nil
}

// printReport writes the repetitions, the metrics table and, last, the
// result line.
func printReport(out io.Writer, c config, rp *report) error {
	fmt.Fprintf(out, "%s, seed %d, %d workers, %d repetitions (1 cold)\n",
		c.w.name, c.env.seed, c.env.workers, len(rp.reps))
	fmt.Fprintf(out, "set-up: median %.4f s of %d\n", median(rp.setups), len(rp.setups))
	for _, s := range rp.reps {
		tag := ""
		switch {
		case s.index == 0:
			tag = " cold"
		case s.traced:
			tag = " traced"
		}
		fmt.Fprintf(out, "rep %d%s: %.3f s, %.1f %s/s, %s, digest %s\n",
			s.index, tag, s.seconds, s.rate(), c.w.unit, s.out.note, s.out.digest)
		if s.err != nil {
			fmt.Fprintf(out, "  FAILED: %v\n", s.err)
		}
	}
	fmt.Fprintf(out, "error_frac %g (%d of %d repetitions)\n",
		float64(rp.res.Failed)/float64(rp.res.Attempted), rp.res.Failed, rp.res.Attempted)
	defs := endToEnd
	if c.traced {
		defs = perLayer
		for _, l := range rp.doc.Layers {
			fmt.Fprintf(out, "layer %-16s %8.3f s  %5.1f%% of CPU\n", l.Layer, l.Seconds, 100*l.ShareCPU)
		}
	}
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.Name, rp.res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(rp.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, one after
// the other, and summarizes their result lines.
func runAll(stdout, stderr io.Writer, seed uint64, seconds, traced int, traceOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	var summary bytes.Buffer
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced)}
		if traceOut != "" {
			args = append(args, "--trace-out", strings.TrimSuffix(traceOut, ".json")+"."+w.name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			continue
		}
		defs := endToEnd
		if traced == 1 {
			defs = perLayer
		}
		fmt.Fprintf(&summary, "%s: correct=%v, %d of %d repetitions failed\n", w.name, res.Correct, res.Failed, res.Attempted)
		for _, d := range defs {
			fmt.Fprintf(&summary, "  %-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	}
	fmt.Fprintf(stdout, "\nsummary\n%s", summary.String())
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
