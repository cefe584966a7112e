package sca

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"medsec/internal/campaign"
	"medsec/internal/coproc"
	"medsec/internal/ec"
	"medsec/internal/gf2m"
	"medsec/internal/rng"
	"medsec/internal/trace"
)

// CPAOptions configures the correlation power attack of §7: a
// white-box evaluation in which the attacker knows the microcode and
// the leakage model and predicts every register write of a ladder
// iteration under both key-bit guesses.
type CPAOptions struct {
	// Bits is the number of scalar bits to recover.
	Bits int
	// KnownMasks grants the attacker the device's RPC randomness —
	// the §7 "countermeasure enabled but the randomness is known"
	// white-box mode.
	KnownMasks bool
	// KnownPrefix is the scalar-bit prefix (from bit 162 downward) the
	// attacker assumes. Paper Algorithm 1 writes the scalar as
	// k = (1, k_{t-2}, ..., k_0): the leading one is a public
	// convention, so the default prefix is {0, 1} (bit 162 of a
	// reduced scalar is zero, bit 161 is the conventional leading 1).
	KnownPrefix []uint
	// Preprocess selects the trace preprocessing applied before
	// correlation. The default ("" / PreprocessNone) correlates the raw
	// samples — the first-order attack. PreprocessCenteredProduct
	// replaces each sample by its centered square (x−µ)² with µ the
	// per-column campaign mean, the univariate second-order attack
	// against a Boolean-masked target: masking pins each write's mean
	// activity but its variance still follows HD(old, new), so the
	// centered products are correlated against Hamming-distance
	// predictions instead of 0→1 counts.
	Preprocess string
}

// Preprocessing modes for CPAOptions.Preprocess.
const (
	PreprocessNone            = ""
	PreprocessCenteredProduct = "centered-product"
)

// DefaultKnownPrefix is the Algorithm 1 scalar convention.
func DefaultKnownPrefix() []uint { return []uint{0, 1} }

// CPAResult reports a correlation power attack.
type CPAResult struct {
	// FirstIter is the first attacked ladder iteration.
	FirstIter int
	// Recovered holds the recovered bits, most significant first.
	Recovered []uint
	// True holds the device's actual key bits at the same positions.
	True []uint
	// Scores holds, per bit, the winning and losing mean |rho|.
	Scores [][2]float64
}

// CorrectBits counts positions where the recovered bit matches.
func (r *CPAResult) CorrectBits() int {
	n := 0
	for i := range r.Recovered {
		if r.Recovered[i] == r.True[i] {
			n++
		}
	}
	return n
}

// BitAccuracy is the fraction of recovered bits that are correct.
func (r *CPAResult) BitAccuracy() float64 {
	if len(r.Recovered) == 0 {
		return 0
	}
	return float64(r.CorrectBits()) / float64(len(r.Recovered))
}

// Success reports whether every targeted bit was recovered.
func (r *CPAResult) Success() bool {
	return len(r.Recovered) > 0 && r.CorrectBits() == len(r.Recovered)
}

// mirror is the attacker's value-level model of the co-processor's six
// working registers. The white-box attacker knows the microcode, so it
// can replay every register write of a ladder iteration and predict
// the write's 0->1 transition count exactly.
type mirror struct {
	r [6]gf2m.Element // X0, Z0, X1, Z1, T0, T1 — same allocation as the microcode
}

// newMirror reproduces the microcode initialization. lambda/mu are the
// RPC masks (zero values => unmasked model).
func newMirror(x, lambda, mu gf2m.Element, rpc bool) mirror {
	var m mirror
	if rpc && !lambda.IsZero() && !mu.IsZero() {
		m.r[0] = lambda
		m.r[1] = gf2m.Zero()
		m.r[4] = mu
		m.r[2] = gf2m.Mul(x, mu)
		m.r[3] = mu
	} else {
		m.r[0] = gf2m.One()
		m.r[1] = gf2m.Zero()
		m.r[2] = x
		m.r[3] = gf2m.One()
	}
	return m
}

// An iteration makes mirrorWrites register writes, at the consecutive
// instruction offsets firstWriteOffset, firstWriteOffset+1, ...: write
// w of an iteration is instruction firstWriteOffset+w.
const (
	firstWriteOffset = 2
	mirrorWrites     = 15
)

// step advances the mirror through one ladder iteration under key bit
// bit, replaying BuildLadderProgram's instruction sequence exactly
// (asserted by tests against the real microcode). It predicts nothing:
// CPA uses it to replay the known and the decided bits.
func (m *mirror) step(bit uint, x, b gf2m.Element) {
	r := &m.r
	// 0,1: CSWAP (renaming; no write power in the protected design).
	if bit == 1 {
		r[0], r[2] = r[2], r[0]
		r[1], r[3] = r[3], r[1]
	}
	r[4] = gf2m.Mul(r[0], r[3])              // 2: MUL T0 = X0*Z1
	r[5] = gf2m.Mul(r[2], r[1])              // 3: MUL T1 = X1*Z0
	r[3] = gf2m.Sqr(gf2m.Add(r[4], r[5]))    // 4: ADD Z1 = T0+T1; 5: SQR Z1 = Z1^2
	r[4] = gf2m.Mul(r[4], r[5])              // 6: MUL T0 = T0*T1
	r[2] = gf2m.Add(gf2m.Mul(x, r[3]), r[4]) // 7: MUL X1 = x*Z1; 8: ADD X1 = X1+T0
	r[0] = gf2m.Sqr(r[0])                    // 9: SQR X0 = X0^2
	r[1] = gf2m.Sqr(r[1])                    // 10: SQR Z0 = Z0^2
	r[5] = gf2m.Mul(r[0], r[1])              // 11: MUL T1 = X0*Z0
	r[0] = gf2m.Sqr(r[0])                    // 12: SQR X0 = X0^2
	r[1] = gf2m.Mul(b, gf2m.Sqr(r[1]))       // 13: SQR Z0 = Z0^2; 14: MUL Z0 = b*Z0
	r[0] = gf2m.Add(r[0], r[1])              // 15: ADD X0 = X0+Z0
	r[1] = r[5]                              // 16: MOVE Z0 = T1
	// 17,18: CSWAP out.
	if bit == 1 {
		r[0], r[2] = r[2], r[0]
		r[1], r[3] = r[3], r[1]
	}
}

// activity is the predicted power of a register write from old to new:
// its 0->1 transitions (the first-order model), or with hd its bit
// flips, HD(old, new) (the second-order model — under Boolean masking
// the write's variance, which the centered product estimates, is an
// affine function of HD).
func activity(old, new gf2m.Element, hd bool) float64 {
	d0, d1, d2 := old[0]^new[0], old[1]^new[1], old[2]^new[2]
	if !hd {
		d0, d1, d2 = d0&new[0], d1&new[1], d2&new[2]
	}
	return float64(bits.OnesCount64(d0) + bits.OnesCount64(d1) + bits.OnesCount64(d2))
}

// stepBoth advances the mirror through one ladder iteration under both
// key-bit guesses: next0 and next1 receive the mirrors step(0, x, b)
// and step(1, x, b) leave (either may be m itself), and pred[g][w] is
// write w's activity under guess g.
//
// The two guesses run the same add half (instructions 2-8) with T0 and
// T1 exchanged: guess 1's CSWAP swaps (X0, Z0) with (X1, Z1), so its
// X0·Z1 is guess 0's X1·Z0 and the other way round, and every later
// value of the half is symmetric in the two products. Only the
// registers they overwrite differ. So the half's four
// multiplications and one squaring are computed once, and a bit costs
// 8 Mul + 9 Sqr for both guesses instead of 12 + 10.
func (m *mirror) stepBoth(x, b gf2m.Element, hd bool, next0, next1 *mirror, pred *[2][mirrorWrites]float64) {
	r := &m.r
	p0, p1 := &pred[0], &pred[1]
	u := gf2m.Mul(r[0], r[3]) // guess 0's T0 = X0*Z1, guess 1's T1 = X1*Z0
	v := gf2m.Mul(r[2], r[1]) // guess 0's T1, guess 1's T0
	// 2: MUL T0 = X0*Z1
	p0[0], p1[0] = activity(r[4], u, hd), activity(r[4], v, hd)
	// 3: MUL T1 = X1*Z0
	p0[1], p1[1] = activity(r[5], v, hd), activity(r[5], u, hd)
	// 4: ADD Z1 = T0+T1 (Z1 is register 3 under guess 0, 1 under guess 1)
	z := gf2m.Add(u, v)
	p0[2], p1[2] = activity(r[3], z, hd), activity(r[1], z, hd)
	// 5: SQR Z1 = Z1^2
	s := gf2m.Sqr(z)
	p0[3] = activity(z, s, hd)
	p1[3] = p0[3]
	// 6: MUL T0 = T0*T1
	t := gf2m.Mul(u, v)
	p0[4], p1[4] = activity(u, t, hd), activity(v, t, hd)
	// 7: MUL X1 = x*Z1 (X1 is register 2 under guess 0, 0 under guess 1)
	xs := gf2m.Mul(x, s)
	p0[5], p1[5] = activity(r[2], xs, hd), activity(r[0], xs, hd)
	// 8: ADD X1 = X1+T0
	x1 := gf2m.Add(xs, t)
	p0[6] = activity(xs, x1, hd)
	p1[6] = p0[6]

	// The double half runs on each guess's own X0 and Z0; the CSWAP out
	// returns guess 1's to registers 2 and 3.
	x00, z00 := double(p0, r[0], r[1], v, b, hd)
	x01, z01 := double(p1, r[2], r[3], u, b, hd)
	next0.r[0], next0.r[1], next0.r[2], next0.r[3], next0.r[4], next0.r[5] = x00, z00, x1, s, t, z00
	next1.r[0], next1.r[1], next1.r[2], next1.r[3], next1.r[4], next1.r[5] = x1, s, x01, z01, t, z01
}

// double is the double half of an iteration (instructions 9-16) on
// X0 = a and Z0 = c, with T1 holding t1: it stores writes 7-14's
// activity in p and returns the new X0 and Z0, which T1 also holds.
func double(p *[mirrorWrites]float64, a, c, t1, b gf2m.Element, hd bool) (x0, z0 gf2m.Element) {
	// 9: SQR X0 = X0^2
	a2 := gf2m.Sqr(a)
	p[7] = activity(a, a2, hd)
	// 10: SQR Z0 = Z0^2
	c2 := gf2m.Sqr(c)
	p[8] = activity(c, c2, hd)
	// 11: MUL T1 = X0*Z0
	z0 = gf2m.Mul(a2, c2)
	p[9] = activity(t1, z0, hd)
	// 12: SQR X0 = X0^2
	a4 := gf2m.Sqr(a2)
	p[10] = activity(a2, a4, hd)
	// 13: SQR Z0 = Z0^2
	c4 := gf2m.Sqr(c2)
	p[11] = activity(c2, c4, hd)
	// 14: MUL Z0 = b*Z0
	bc4 := gf2m.Mul(b, c4)
	p[12] = activity(c4, bc4, hd)
	// 15: ADD X0 = X0+Z0
	x0 = gf2m.Add(a4, bc4)
	p[13] = activity(a4, x0, hd)
	// 16: MOVE Z0 = T1
	p[14] = activity(bc4, z0, hd)
	return x0, z0
}

// iterWriteCycles returns the writeback cycle of each mirror write of
// ladder iteration iter, indexed by write (see firstWriteOffset): the
// last cycle of the instruction at offset firstWriteOffset+w when it
// is a MUL, SQR, ADD or MOVE, -1 otherwise. spans is the target
// program's Spans(Timing). It is the rule for what a campaign records
// (NewCampaign) and where the CPA reads each write (iterWriteColumns).
func iterWriteCycles(spans []coproc.InstrSpan, iter int) [mirrorWrites]int {
	var out [mirrorWrites]int
	for w := range out {
		out[w] = -1
	}
	// Locate the iteration's first instruction index.
	first := -1
	for _, sp := range spans {
		if sp.Iteration == iter {
			first = sp.Index
			break
		}
	}
	if first < 0 {
		return out
	}
	for _, sp := range spans[first:] {
		if sp.Iteration != iter {
			break
		}
		w := sp.Index - first - firstWriteOffset
		if w < 0 || w >= mirrorWrites {
			continue
		}
		switch sp.Op {
		case coproc.OpMul, coproc.OpSqr, coproc.OpAdd, coproc.OpMove:
			out[w] = sp.End - 1
		}
	}
	return out
}

// iterWriteColumns returns, for one ladder iteration, the campaign
// sample column of each mirror write's writeback cycle (its index in
// c.Cycles), indexed by write; -1 marks a write the campaign does not
// record.
func (c *Campaign) iterWriteColumns(spans []coproc.InstrSpan, iter int) [mirrorWrites]int {
	out := iterWriteCycles(spans, iter)
	for w, cyc := range out {
		col, ok := slices.BinarySearch(c.Cycles, cyc)
		if cyc < 0 || !ok || col >= c.Set.SampleLen() {
			col = -1
		}
		out[w] = col
	}
	return out
}

// fanOut splits [0, n) into at most workers contiguous ranges and runs
// f on each in its own goroutine, returning when all are done. A single
// range runs inline.
func fanOut(workers, n int, f func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := k*n/workers, (k+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}

// corrSums are the running sums of one Pearson correlation between a
// hypothesis column and a sample column: Σh, Σx, Σh², Σx² and Σhx.
type corrSums struct{ h, x, hh, xx, hx float64 }

// add folds traces [lo, hi) into the sums, each a serial sum in trace
// order. Sums resumed at trace m therefore make exactly the additions
// a pass from trace 0 makes.
func (s *corrSums) add(h []float64, traces []trace.Trace, col, lo, hi int) {
	sh, sx, shh, sxx, shx := s.h, s.x, s.hh, s.xx, s.hx
	for i := lo; i < hi; i++ {
		x := traces[i].Samples[col]
		sh += h[i]
		sx += x
		shh += h[i] * h[i]
		sxx += x * x
		shx += h[i] * x
	}
	*s = corrSums{sh, sx, shh, sxx, shx}
}

// rho is the correlation over n traces: 0 when either side is constant.
func (s *corrSums) rho(n int) float64 {
	fn := float64(n)
	cov := s.hx - s.h*s.x/fn
	vh := s.hh - s.h*s.h/fn
	vx := s.xx - s.x*s.x/fn
	if vh <= 0 || vx <= 0 {
		return 0
	}
	return cov / math.Sqrt(vh*vx)
}

// cpaLevel is one attacked level of an analysis: the bits decided
// above it and its 2 guesses × 15 writes correlation sums, indexed
// 2·write + guess.
type cpaLevel struct {
	decided []uint
	sums    [2 * mirrorWrites]corrSums
}

// cpaMemo carries a campaign's correlation sums from one CPA to the
// next on a longer view of it (see Campaign): the levels of the last
// stored analysis, the configuration it ran under, and the identity of
// the m traces it summed — the address of each one's first sample, in
// index order. Stored levels are never modified, so a loaded slice
// stays valid after the lock is released.
type cpaMemo struct {
	mu         sync.Mutex
	knownMasks bool
	prefix     []uint
	summed     []*float64
	levels     []cpaLevel
}

// holds reports whether the memo's sums were taken under this
// configuration over the leading traces of traces (as many as both
// have). The caller holds mu.
func (mm *cpaMemo) holds(knownMasks bool, prefix []uint, traces []trace.Trace) bool {
	if len(mm.summed) == 0 || mm.knownMasks != knownMasks || !slices.Equal(mm.prefix, prefix) {
		return false
	}
	for i := range min(len(mm.summed), len(traces)) {
		if &traces[i].Samples[0] != mm.summed[i] {
			return false
		}
	}
	return true
}

// load returns the levels an analysis of traces may resume and the
// trace count m they cover, and whether the analysis should save its
// own levels. A view no longer than the memo's is analysed in full and
// leaves the memo as it is; so does any centered-product analysis,
// which never calls load.
func (mm *cpaMemo) load(knownMasks bool, prefix []uint, traces []trace.Trace) (levels []cpaLevel, m int, save bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	switch {
	case !mm.holds(knownMasks, prefix, traces):
		return nil, 0, true
	case len(traces) <= len(mm.summed):
		return nil, 0, false
	}
	return mm.levels, len(mm.summed), true
}

// save records the levels of an analysis of traces, unless an
// analysis of a view at least as long already has.
func (mm *cpaMemo) save(knownMasks bool, prefix []uint, traces []trace.Trace, levels []cpaLevel) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if !mm.holds(knownMasks, prefix, traces) {
		mm.knownMasks, mm.prefix, mm.summed = knownMasks, slices.Clone(prefix), mm.summed[:0]
	} else if len(traces) <= len(mm.summed) {
		return
	}
	for _, tr := range traces[len(mm.summed):] {
		mm.summed = append(mm.summed, &tr.Samples[0])
	}
	mm.levels = levels
}

// CPA runs the iterative white-box correlation attack: per attacked
// bit, it replays the iteration's microcode under both guesses,
// predicts each register write's 0->1 transitions, correlates each
// prediction with the measured power at that write's exact cycle, and
// keeps the guess with the higher mean |rho|. One point
// multiplication's worth of leading bits pins down the whole scalar in
// practice; recovering a handful of bits per campaign is the standard
// evaluation shortcut.
//
// Those writeback cycles are the only samples the attack reads, so
// they are the only ones a campaign acquires (Campaign.Cycles): each
// write's column is its cycle's index there, and a trace holds 15
// samples per attacked iteration rather than the iteration's ~480
// cycles.
//
// CPA is one of the attacks that genuinely needs a retained trace.Set:
// bit b's hypotheses depend on the bits decided before it, so the
// statistic is multi-pass and cannot stream the traces away. It need
// not re-correlate every trace, though. A level's hypothesis for trace
// i depends only on i and on the bits decided above the level, and
// each correlation is five serial sums in trace order, so the sums
// over a view's first m traces are exact prefixes of the sums over
// any longer view. A CPA on a view of a campaign grown by
// ExtendCampaign therefore resumes, at every level whose decided bits
// are unchanged, the sums an earlier CPA of a shorter view left in the
// campaign's memo, and replays and correlates only the new traces. At
// the first level whose decided bits changed, the older traces are
// replayed from their initial mirror along the new bits and summed
// from zero. The result is bit-identical to an analysis from scratch.
// The centered-product mode, whose column means change with n, and a
// view no longer than the memo's are analysed in full.
//
// Acquisition fans out through the parallel engine (AcquireCampaign),
// and the analysis fans out over the same Target.Workers pool: each
// worker replays the mirrors of one contiguous trace range, then
// computes a share of each bit's correlations. The result is
// bit-identical for any worker count, because every mirror and
// hypothesis slot has exactly one writer and every correlation is one
// serial sum in trace order; the mean |rho| per guess is summed
// serially in write order.
func CPA(c *Campaign, opt CPAOptions) (*CPAResult, error) {
	if opt.Bits <= 0 {
		return nil, errors.New("sca: CPA needs a positive bit count")
	}
	if opt.KnownPrefix == nil {
		opt.KnownPrefix = DefaultKnownPrefix()
	}
	if opt.Preprocess != PreprocessNone && opt.Preprocess != PreprocessCenteredProduct {
		return nil, fmt.Errorf("sca: unknown CPA preprocess %q (want %q or %q)",
			opt.Preprocess, PreprocessNone, PreprocessCenteredProduct)
	}
	firstAttacked := 162 - len(opt.KnownPrefix)
	if c.FirstIter < firstAttacked || firstAttacked-opt.Bits+1 < c.LastIter {
		return nil, fmt.Errorf("sca: campaign window (iters %d..%d) does not cover attacked bits %d..%d",
			c.FirstIter, c.LastIter, firstAttacked, firstAttacked-opt.Bits+1)
	}
	traces := c.Set.Traces
	n := len(traces)
	if n < 2 {
		return nil, errors.New("sca: need at least two traces")
	}
	// The correlations index every trace's samples directly, so the set
	// must be rectangular and non-empty.
	for _, tr := range traces {
		if len(tr.Samples) == 0 || len(tr.Samples) != len(traces[0].Samples) {
			return nil, trace.ErrEmptySet
		}
	}
	curve := c.Target.Curve
	workers := campaign.Workers(c.Target.Workers)

	// Verify the known prefix actually matches the device key — the
	// evaluation harness generates keys under the Algorithm 1
	// convention, and a silent mismatch would invalidate the result.
	for i, pb := range opt.KnownPrefix {
		if c.Target.Key.Bit(162-i) != pb {
			return nil, fmt.Errorf("sca: device key violates the assumed prefix at bit %d", 162-i)
		}
	}

	// The levels an earlier analysis of a shorter view left in the
	// campaign's memo, over its first m traces.
	centered := opt.Preprocess == PreprocessCenteredProduct
	var prior []cpaLevel
	m, save := 0, false
	if c.memo != nil && !centered {
		prior, m, save = c.memo.load(opt.KnownMasks, opt.KnownPrefix, traces)
	}

	// Attacker mirrors per trace: states[g][i] is trace i's mirror
	// after the bits decided so far with the current bit guessed g.
	// cur is the slice of the decided guess (states[0] before the first
	// bit), valid for traces [have, n). stepBoth reads trace i's mirror
	// in full before it writes either of the trace's slots, so cur may
	// alias either slice.
	rpc := c.Target.prog.RPC
	states := [2][]mirror{make([]mirror, n), make([]mirror, n)}
	cur, have := states[0], n

	// Hypothesis columns, reused across bits: hyp[g][w][i] is trace i's
	// prediction for write w under guess g.
	var hyp [2][mirrorWrites][]float64
	backing := make([]float64, 2*mirrorWrites*n)
	for g := range hyp {
		for w := range hyp[g] {
			k := g*mirrorWrites + w
			hyp[g][w] = backing[k*n : (k+1)*n]
		}
	}

	// Centered-product preprocessing: per-column campaign means once,
	// then per bit the centered-square columns z[w] ((x−µ)², the
	// products trace's CenterSquare oracle forms for a whole trace) of the write
	// cycles the attack actually correlates, shared by both guesses.
	var colMean []float64
	var z [mirrorWrites][]float64
	if centered {
		colMean = make([]float64, c.Set.SampleLen())
		for _, tr := range traces {
			for i, v := range tr.Samples {
				colMean[i] += v
			}
		}
		inv := 1 / float64(n)
		for i := range colMean {
			colMean[i] *= inv
		}
		zBacking := make([]float64, mirrorWrites*n)
		for w := range z {
			z[w] = zBacking[w*n : (w+1)*n]
		}
	}

	spans := c.Target.prog.Spans(c.Target.Timing)
	res := &CPAResult{FirstIter: firstAttacked}
	levels := make([]cpaLevel, opt.Bits)
	for b := range levels {
		iter := firstAttacked - b
		cols := c.iterWriteColumns(spans, iter)

		// Resume the level's sums over the first m traces if the bits
		// decided above it are the prior analysis's; otherwise start
		// from zero, and replay the traces that hold no mirror at this
		// level from their initial mirror along the known and decided
		// bits.
		lvl := &levels[b]
		start := 0
		if b < len(prior) && slices.Equal(prior[b].decided, res.Recovered) {
			start, lvl.sums = m, prior[b].sums
		}
		if start < have {
			fanOut(workers, have-start, func(lo, hi int) {
				for i := start + lo; i < start+hi; i++ {
					var lambda, mu gf2m.Element
					if rpc && opt.KnownMasks {
						lambda, mu = c.Target.Masks(uint64(i))
					}
					x := c.Points[i].X
					mr := newMirror(x, lambda, mu, rpc)
					for _, bit := range opt.KnownPrefix {
						mr.step(bit, x, curve.B)
					}
					for _, bit := range res.Recovered {
						mr.step(bit, x, curve.B)
					}
					cur[i] = mr
				}
			})
		}
		have = start

		// Both guesses for traces [start, n), in the worker owning the
		// trace.
		from := cur
		fanOut(workers, n-start, func(lo, hi int) {
			var pred [2][mirrorWrites]float64
			for i := start + lo; i < start+hi; i++ {
				from[i].stepBoth(c.Points[i].X, curve.B, centered, &states[0][i], &states[1][i], &pred)
				for g := range pred {
					for w, v := range pred[g] {
						hyp[g][w][i] = v
					}
				}
			}
		})

		if centered {
			for w, col := range cols {
				if col < 0 {
					continue
				}
				for i, tr := range traces {
					d := tr.Samples[col] - colMean[col]
					z[w][i] = d * d
				}
			}
		}

		// One correlation per guess and write, each a serial sum in
		// trace order. Jobs run write-major so a worker's consecutive
		// jobs read the same sample column.
		var rho [2 * mirrorWrites]float64
		fanOut(workers, len(rho), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				w, g := j/2, j%2
				if cols[w] < 0 {
					continue
				}
				if centered {
					rho[j] = pearsonScalar(hyp[g][w], z[w])
				} else {
					lvl.sums[j].add(hyp[g][w], traces, cols[w], start, n)
					rho[j] = lvl.sums[j].rho(n)
				}
			}
		})
		var scores [2]float64
		for g := range scores {
			var sum float64
			var cnt int
			for w, col := range cols {
				if col < 0 {
					continue
				}
				sum += math.Abs(rho[2*w+g])
				cnt++
			}
			if cnt > 0 {
				scores[g] = sum / float64(cnt)
			}
		}
		bit := uint(0)
		if scores[1] > scores[0] {
			bit = 1
		}
		res.Recovered = append(res.Recovered, bit)
		res.True = append(res.True, c.Target.Key.Bit(iter))
		res.Scores = append(res.Scores, [2]float64{scores[bit], scores[1-bit]})
		cur = states[bit]
	}
	if save {
		decided := slices.Clone(res.Recovered)
		for b := range levels {
			levels[b].decided = decided[:b:b]
		}
		c.memo.save(opt.KnownMasks, opt.KnownPrefix, traces, levels)
	}
	return res, nil
}

// SuccessRatePoint is one point of a success-rate curve.
type SuccessRatePoint struct {
	Traces      int
	SuccessRate float64
}

// SuccessRateCurve estimates the DPA success rate (fraction of
// independent trials recovering all targeted bits) at each campaign
// size — the standard evaluation figure of the SCA literature. Each
// trial uses an independent key and acquisition campaign.
func SuccessRateCurve(mk func(trial uint64) *Target, sizes []int, bits, trials int, opt CPAOptions, pointSeed uint64) ([]SuccessRatePoint, error) {
	if trials < 1 || len(sizes) == 0 {
		return nil, errors.New("sca: need trials and sizes")
	}
	if opt.KnownPrefix == nil {
		opt.KnownPrefix = DefaultKnownPrefix()
	}
	opt.Bits = bits
	wins := make([]int, len(sizes))
	maxN := sizes[len(sizes)-1]
	firstIter := 162 - len(opt.KnownPrefix)
	lastIter := firstIter - bits + 1
	for trial := 0; trial < trials; trial++ {
		t := mk(uint64(trial))
		// Per-trial independent point stream.
		d := rng.NewDRBG(pointSeed ^ (uint64(trial)+1)*0x9e3779b97f4a7c15)
		full, err := t.AcquireCampaign(maxN, firstIter, lastIter, d.Uint64)
		if err != nil {
			return nil, err
		}
		for si, n := range sizes {
			res, err := CPA(full.Prefix(n), opt)
			if err != nil {
				return nil, err
			}
			if res.Success() {
				wins[si]++
			}
		}
	}
	out := make([]SuccessRatePoint, len(sizes))
	for i, n := range sizes {
		out[i] = SuccessRatePoint{Traces: n, SuccessRate: float64(wins[i]) / float64(trials)}
	}
	return out, nil
}

// TracesToSuccess evaluates the CPA at increasing campaign sizes and
// returns the smallest size at which all targeted bits are recovered,
// or -1 (plus the largest campaign's result) if even the largest
// fails — the outcome the paper reports for the protected chip at
// 20 000 traces.
//
// The search is an early-stop campaign: it acquires (in parallel)
// only up to the checkpoint that succeeds rather than the maximum
// size up front. Because trace i is a pure function of index i, the
// incrementally extended campaign is identical to a prefix of the
// full one, so the returned result matches the over-acquiring
// implementation exactly — it just stops simulating sooner.
//
// With Target.Ckpt configured, the search persists the acquired trace
// set after every evaluated size — so a killed process loses at most
// one size step of acquisition — and, with Resume set, continues a
// previous process's search: the stored set is restored and the
// attacker's point stream is re-derived by replaying pointSrc over the
// restored prefix, which also positions the stream for further
// extension. A Complete checkpoint (the search finished) skips
// acquisition entirely and re-evaluates the analysis at the stored
// watermark.
func TracesToSuccess(t *Target, sizes []int, bits int, opt CPAOptions, pointSrc func() uint64) (int, *CPAResult, error) {
	if len(sizes) == 0 {
		return -1, nil, errors.New("sca: no campaign sizes given")
	}
	if opt.KnownPrefix == nil {
		opt.KnownPrefix = DefaultKnownPrefix()
	}
	opt.Bits = bits
	firstIter := 162 - len(opt.KnownPrefix)
	lastIter := firstIter - bits + 1
	camp := t.NewCampaign(firstIter, lastIter)

	ck := t.Ckpt
	maxN := sizes[len(sizes)-1]
	resumedN := 0
	complete := false
	prev, err := ck.load(0, maxN, 0)
	if err != nil {
		return -1, nil, err
	}
	if prev != nil {
		if err := camp.Set.UnmarshalBinary(prev.Blobs["set"]); err != nil {
			return -1, nil, fmt.Errorf("sca: checkpoint %s trace set: %w", ck.Path, err)
		}
		if camp.Set.Len() != prev.Header.Watermark {
			return -1, nil, fmt.Errorf("sca: checkpoint %s trace set holds %d traces, watermark says %d",
				ck.Path, camp.Set.Len(), prev.Header.Watermark)
		}
		// The header cannot tell traces recorded at other cycles apart
		// (two runs outside a git checkout both report GitSHA
		// "unknown"), so the shape is checked here: a full-window trace
		// would otherwise be read as writeback columns.
		for i, tr := range camp.Set.Traces {
			if len(tr.Samples) != len(camp.Cycles) {
				return -1, nil, fmt.Errorf("sca: checkpoint %s trace %d holds %d samples, this campaign records %d per trace",
					ck.Path, i, len(tr.Samples), len(camp.Cycles))
			}
		}
		// Re-derive the attacker's point stream: the points are the
		// source's draws in index order, whatever the RandomPoints
		// calls they were split into, so one call over the restored
		// prefix regenerates Points exactly and leaves pointSrc
		// positioned for the next extension.
		camp.Points = make([]ec.Point, prev.Header.Watermark)
		t.Curve.RandomPoints(camp.Points, pointSrc)
		resumedN = prev.Header.Watermark
		complete = prev.Header.Complete
	}
	writeAt := func(n int, done bool) error {
		if !ck.enabled() {
			return nil
		}
		blob, err := camp.Set.Prefix(n).MarshalBinary()
		if err != nil {
			return err
		}
		h := ck.campHeader(0, maxN, 0)
		h.Watermark, h.Complete = n, done
		return ck.write(h, map[string][]byte{"set": blob})
	}
	if complete {
		// A finished search: success at the watermark reproduces the
		// successful size, failure reproduces the exhausted search —
		// either way no acquisition is needed.
		res, err := CPA(camp.Prefix(resumedN), opt)
		if err != nil {
			return -1, nil, err
		}
		if res.Success() {
			return resumedN, res, nil
		}
		return -1, res, nil
	}
	var last *CPAResult
	for _, n := range sizes {
		if n < resumedN {
			// A non-Complete checkpoint at watermark w means every size
			// <= w was already evaluated (and failed) by the previous
			// process. The watermark size itself is re-evaluated — the
			// analysis is deterministic, so this merely reproduces the
			// stored failure (and keeps `last` populated) without
			// re-acquiring anything (ExtendCampaign to <= Len is a
			// no-op).
			continue
		}
		if err := t.ExtendCampaign(camp, n, pointSrc); err != nil {
			return -1, nil, err
		}
		res, err := CPA(camp.Prefix(n), opt)
		if err != nil {
			return -1, nil, err
		}
		last = res
		if res.Success() {
			if err := writeAt(n, true); err != nil {
				return -1, nil, err
			}
			return n, res, nil
		}
		if err := writeAt(n, false); err != nil {
			return -1, nil, err
		}
	}
	if err := writeAt(camp.Set.Len(), true); err != nil {
		return -1, nil, err
	}
	return -1, last, nil
}
