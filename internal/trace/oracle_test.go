package trace

import "medsec/internal/coproc"

// referenceProbe is the per-cycle recorder LaneSink is checked
// against: every cycle evaluates the power model's CycleEnergy, noise
// included, in cycle order, and cycles outside the window are
// evaluated and discarded so the noise stream stays aligned.
func (c *Collector) referenceProbe() coproc.Probe {
	c.trace = Trace{StartCycle: c.Start}
	return func(ev *coproc.CycleEvent) {
		if ev.Cycle < c.Start || (c.End > 0 && ev.Cycle >= c.End) {
			_ = c.Model.CycleEnergy(ev)
			return
		}
		c.trace.Samples = append(c.trace.Samples, c.Model.CyclePower(ev))
	}
}
