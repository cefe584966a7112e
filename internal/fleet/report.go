package fleet

import (
	"fmt"
	"math"
	"strings"

	"medsec/internal/design"
)

// Report is one run's result over the whole fleet: the experiment
// config and the folded accumulator.
type Report struct {
	Config Config `json:"config"`
	// Accum is the folded fleet state.
	Accum *Accum `json:"accum"`
	// CacheStats reports the design build cache's effectiveness for
	// the producing run. Not part of the rendered report: a resumed
	// run specializes only the devices it simulates, so its counts
	// differ; its results may not.
	CacheStats design.CacheStats `json:"cache_stats,omitempty"`
}

// pct renders a ratio of two exact integers as a percentage.
func pct(num, den int64) string {
	if den == 0 {
		return "    -"
	}
	return fmt.Sprintf("%5.1f", 100*float64(num)/float64(den))
}

// Render formats the fleet report. Every number is derived from
// integer accumulator fields or histogram bucket counts — never from
// a float running sum — so the rendering is byte-identical across
// worker counts, internal shard counts, and kill-and-resume of the
// same fleet.
func (r *Report) Render() string {
	var b strings.Builder
	t := r.Accum.totals()
	fmt.Fprintf(&b, "fleet: %d devices in %d cohorts, seed=%d, %d sessions/device",
		r.Config.TotalDevices(), len(r.Config.Cohorts), r.Config.Seed, r.Config.SessionsPerDevice)
	if r.Config.Storm != nil {
		fmt.Fprintf(&b, " + %d storm sessions (loss +%.2f)", r.Config.Storm.Sessions, r.Config.Storm.LossBoost)
	}
	fmt.Fprintf(&b, "\ndevices [0, %d)\n\n", r.Config.TotalDevices())

	fmt.Fprintf(&b, "%-14s %8s %9s %6s %6s %8s %8s %8s %8s %9s %7s %7s\n",
		"cohort", "devices", "sessions", "ok%", "storm%", "p50 s", "p95 s", "p99 s",
		"uJ/sess", "retries", "life y", "spec%")
	line := func(name string, a *CohortAccum) {
		totalSessions := a.Sessions + a.StormSessions
		uj := "       -"
		if totalSessions > 0 {
			uj = fmt.Sprintf("%8.2f", float64(a.EnergyPJ)/1e6/float64(totalSessions))
		}
		retries := "        -"
		if totalSessions > 0 {
			retries = fmt.Sprintf("%9.3f", float64(a.Retries)/float64(totalSessions))
		}
		life, spec := "      -", "      -"
		if a.BatteryDevices > 0 {
			life = fmt.Sprintf("%7.2f", float64(a.LifetimeCYSum)/100/float64(a.BatteryDevices))
			spec = fmt.Sprintf("%7.1f", 100*float64(a.OutlivedSpec)/float64(a.BatteryDevices))
		}
		fmt.Fprintf(&b, "%-14s %8d %9d %6s %6s %8s %8s %8s %s %s %s %s\n",
			name, a.Devices, totalSessions,
			pct(a.Completed, a.Sessions), pct(a.StormCompleted, a.StormSessions),
			quantS(a, 0.50), quantS(a, 0.95), quantS(a, 0.99),
			uj, retries, life, spec)
	}
	for _, c := range r.Accum.Cohorts {
		line(c.Name, c)
	}
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 112))
	line("fleet", t)

	if t.BatteryDevices > 0 && t.MinLifetimeCY != math.MaxInt64 {
		fmt.Fprintf(&b, "\nworst battery: %.2f years of security budget remaining; %s%% of devices outlive spec\n",
			float64(t.MinLifetimeCY)/100, strings.TrimSpace(pct(t.OutlivedSpec, t.BatteryDevices)))
	}
	if t.LinkAborts+t.OtherAborts > 0 {
		fmt.Fprintf(&b, "aborts: %d link-exhausted, %d protocol\n", t.LinkAborts, t.OtherAborts)
	}
	return b.String()
}

// quantS renders a latency quantile (histogram µs buckets) in seconds.
func quantS(a *CohortAccum, q float64) string {
	v := a.Latency.Quantile(q)
	if math.IsNaN(v) {
		return "       -"
	}
	return fmt.Sprintf("%8.3f", v/1e6)
}
