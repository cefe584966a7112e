// Command eccsim runs point multiplications on the simulated
// co-processor and reports the chip's operating point (experiment E1):
// cycles, latency, throughput, average power and energy, for any
// combination of the design knobs the paper discusses.
//
// Usage:
//
//	eccsim [-n 10] [-d 4] [-clock 847500] [-vdd 1.0] [-rpc=true]
//	       [-style cmos|wddl|sabl] [-seed 1] [-metrics out.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"medsec/internal/cliutil"
	"medsec/internal/design"
	"medsec/internal/obs"
	"medsec/internal/tabular"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eccsim: ")
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run executes one eccsim invocation and writes its report to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("eccsim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 10, "number of point multiplications")
		digit     = fs.Int("d", design.DefaultDigitSize, "digit-serial multiplier width")
		clock     = fs.Float64("clock", design.DefaultClockHz, "core clock in Hz")
		vdd       = fs.Float64("vdd", design.DefaultVdd, "core supply voltage")
		rpc       = fs.Bool("rpc", true, "randomized projective coordinates")
		style     = fs.String("style", "cmos", "logic style: cmos|wddl|sabl")
		seed      = fs.Uint64("seed", 1, "experiment seed")
		noise     = fs.Float64("noise", 0, "measurement noise sigma (fraction of nominal cycle energy)")
		breakdown = fs.Bool("breakdown", false, "print the per-component energy split")
		dump      = fs.Int("dump", 0, "disassemble the first N microcode instructions")
		metrics   = fs.String("metrics", "", "write a run manifest (environment, flags, metric snapshot) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := design.Defaults()
	p.Seed = *seed
	p.TRNGSeed = *seed
	p.DigitSize = *digit
	p.RPC = *rpc
	p.ClockHz = *clock
	p.VddV = *vdd
	p.NoiseSigma = *noise
	p.Logic = *style
	st, err := p.Build()
	if err != nil {
		return err
	}

	chip, err := st.Chip()
	if err != nil {
		return err
	}
	g := chip.Curve().Generator()
	for i := 0; i < *n; i++ {
		// The simulator runs one point multiplication at a time, so
		// interruption lands on the operation boundary.
		if err := ctx.Err(); err != nil {
			return err
		}
		k := chip.GenerateScalar()
		if _, err := chip.ScalarMul(k, g); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "co-processor: %s, d=%d, RPC=%v, %s, %.1f kHz, Vdd=%.2f V\n\n",
		chip.Curve().Name, *digit, *rpc, st.Power.Style, *clock/1e3, *vdd)
	t := tabular.New("metric", "value", "paper (d=4 chip)")
	t.Row("cycles / point mult", chip.Last.Cycles, "~86 480")
	t.Row("latency", fmt.Sprintf("%.1f ms", chip.Last.DurationS*1e3), "102 ms")
	t.Row("throughput", fmt.Sprintf("%.2f PM/s", 1/chip.Last.DurationS), "9.8 PM/s")
	t.Row("average power", fmt.Sprintf("%.2f uW", chip.Last.AvgPowerW*1e6), "50.4 uW")
	t.Row("energy / point mult", fmt.Sprintf("%.3f uJ", chip.Last.EnergyJ*1e6), "5.1 uJ")
	t.Row("total energy (n ops)", fmt.Sprintf("%.2f uJ", chip.Total.EnergyJ*1e6), "-")
	t.Render(w)

	if *breakdown {
		fmt.Fprintln(w, "\nenergy breakdown (one point multiplication):")
		if err := printBreakdown(w, st); err != nil {
			return err
		}
	}
	if *dump > 0 {
		fmt.Fprintf(w, "\nmicrocode (first %d instructions):\n", *dump)
		fmt.Fprint(w, st.Ladder().Listing(st.Timing, *dump))
	}
	if *metrics != "" {
		reg := obs.New()
		reg.Counter("eccsim_point_muls").Add(int64(*n))
		reg.Gauge("eccsim_cycles_per_pm").Set(float64(chip.Last.Cycles))
		reg.Gauge("eccsim_energy_per_pm_j").Set(chip.Last.EnergyJ)
		reg.Gauge("eccsim_avg_power_w").Set(chip.Last.AvgPowerW)
		reg.Gauge("eccsim_area_ge").Set(st.Area.TotalGE())
		return obs.NewManifest("eccsim", "pm", *seed, fs, reg).Write(*metrics)
	}
	return nil
}

// printBreakdown meters one noise-free point multiplication with the
// component-resolved meter, using the historical mask/key streams (99
// and 98) so the split matches the chip's golden table.
func printBreakdown(w io.Writer, st *design.Stack) error {
	c, _, err := st.MeasureBreakdown(st.RandomScalar(98), 99)
	if err != nil {
		return err
	}
	total := c.Total()
	t := tabular.New("component", "energy [uJ]", "share")
	row := func(name string, v float64) {
		t.Row(name, fmt.Sprintf("%.3f", v*1e6), fmt.Sprintf("%.1f%%", v/total*100))
	}
	row("leakage + clock spine", c.Leakage)
	row("clock tree (registers)", c.Clock)
	row("datapath switching", c.Datapath)
	row("mux control network", c.Control)
	t.Row("total", fmt.Sprintf("%.3f", total*1e6), "100%")
	t.Render(w)
	return nil
}
