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

func zeroToOne(old, new gf2m.Element) float64 {
	d := gf2m.Add(old, new)
	// Positions flipping 0->1 are flips AND new.
	n := 0
	for i := 0; i < gf2m.Words; i++ {
		n += bits.OnesCount64(d[i] & new[i])
	}
	return float64(n)
}

// writePred is one predicted register write: the instruction offset
// within the iteration's microcode, the predicted 0->1 count (the
// first-order model) and the predicted Hamming distance (the
// second-order model — under Boolean masking the write's variance,
// which the centered product estimates, is an affine function of
// HD(old, new)).
type writePred struct {
	offset int
	w01    float64
	hd     float64
}

// step reports mirrorWrites register writes per iteration, at the
// consecutive instruction offsets firstWriteOffset, firstWriteOffset+1,
// ...: write w of an iteration is instruction firstWriteOffset+w.
const (
	firstWriteOffset = 2
	mirrorWrites     = 15
)

// step advances the mirror through one ladder iteration with the given
// key-bit guess, reporting each writing instruction's offset and
// predicted 0->1 transitions. The instruction sequence mirrors
// BuildLadderProgram exactly (asserted by tests against the real
// microcode).
func (m *mirror) step(bit uint, x, b gf2m.Element, collect func(writePred)) {
	wr := func(offset int, dst int, v gf2m.Element) {
		if collect != nil {
			collect(writePred{
				offset: offset,
				w01:    zeroToOne(m.r[dst], v),
				hd:     float64(gf2m.HammingDistance(m.r[dst], v)),
			})
		}
		m.r[dst] = v
	}
	// 0,1: CSWAP (renaming; no write power in the protected design).
	if bit == 1 {
		m.r[0], m.r[2] = m.r[2], m.r[0]
		m.r[1], m.r[3] = m.r[3], m.r[1]
	}
	// 2: MUL T0 = X0*Z1
	wr(2, 4, gf2m.Mul(m.r[0], m.r[3]))
	// 3: MUL T1 = X1*Z0
	wr(3, 5, gf2m.Mul(m.r[2], m.r[1]))
	// 4: ADD Z1 = T0+T1
	wr(4, 3, gf2m.Add(m.r[4], m.r[5]))
	// 5: SQR Z1 = Z1^2
	wr(5, 3, gf2m.Sqr(m.r[3]))
	// 6: MUL T0 = T0*T1
	wr(6, 4, gf2m.Mul(m.r[4], m.r[5]))
	// 7: MUL X1 = x*Z1
	wr(7, 2, gf2m.Mul(x, m.r[3]))
	// 8: ADD X1 = X1+T0
	wr(8, 2, gf2m.Add(m.r[2], m.r[4]))
	// 9: SQR X0 = X0^2
	wr(9, 0, gf2m.Sqr(m.r[0]))
	// 10: SQR Z0 = Z0^2
	wr(10, 1, gf2m.Sqr(m.r[1]))
	// 11: MUL T1 = X0*Z0
	wr(11, 5, gf2m.Mul(m.r[0], m.r[1]))
	// 12: SQR X0 = X0^2
	wr(12, 0, gf2m.Sqr(m.r[0]))
	// 13: SQR Z0 = Z0^2
	wr(13, 1, gf2m.Sqr(m.r[1]))
	// 14: MUL Z0 = b*Z0
	wr(14, 1, gf2m.Mul(b, m.r[1]))
	// 15: ADD X0 = X0+Z0
	wr(15, 0, gf2m.Add(m.r[0], m.r[1]))
	// 16: MOVE Z0 = T1
	wr(16, 1, m.r[5])
	// 17,18: CSWAP out.
	if bit == 1 {
		m.r[0], m.r[2] = m.r[2], m.r[0]
		m.r[1], m.r[3] = m.r[3], m.r[1]
	}
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
// recovering bit b requires re-correlating every trace after the bit
// b-1 decision, so the statistic is inherently multi-pass and cannot
// stream the traces away. Acquisition fans out through the parallel
// engine (AcquireCampaign), and the analysis fans out over the same
// Target.Workers pool: each worker replays the mirrors of one
// contiguous trace range, then computes a share of each bit's
// correlations. The result is bit-identical for any worker count,
// because every mirror and hypothesis slot has exactly one writer and
// every correlation is one serial sum in trace order; the mean |rho|
// per guess is summed serially in write order.
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
	n := c.Set.Len()
	if n < 2 {
		return nil, errors.New("sca: need at least two traces")
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

	// Attacker mirrors per trace: states[g][i] is trace i's mirror
	// after the bits decided so far with the current bit guessed g.
	// cur is the slice of the decided guess (states[0] before the first
	// bit); each bit copies cur[i] out before overwriting both slots of
	// trace i, so cur may alias either slice.
	rpc := c.Target.prog.RPC
	states := [2][]mirror{make([]mirror, n), make([]mirror, n)}
	cur := states[0]
	fanOut(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var lambda, mu gf2m.Element
			if rpc && opt.KnownMasks {
				lambda, mu = c.Target.Masks(uint64(i))
			}
			m := newMirror(c.Points[i].X, lambda, mu, rpc)
			for _, pb := range opt.KnownPrefix {
				m.step(pb, c.Points[i].X, curve.B, nil)
			}
			cur[i] = m
		}
	})

	// Hypothesis columns, reused across bits: hyp[g][w][i] is trace i's
	// prediction for write w under guess g.
	centered := opt.Preprocess == PreprocessCenteredProduct
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
	// products trace.CenterSquare forms for a whole trace) of the write
	// cycles the attack actually correlates, shared by both guesses.
	var colMean []float64
	var z [mirrorWrites][]float64
	if centered {
		colMean = make([]float64, c.Set.SampleLen())
		for _, tr := range c.Set.Traces {
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
	for b := 0; b < opt.Bits; b++ {
		iter := firstAttacked - b
		cols := c.iterWriteColumns(spans, iter)

		// Both guesses for every trace, in the worker owning the trace.
		from := cur
		fanOut(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := c.Points[i].X
				prev := from[i]
				for g := uint(0); g <= 1; g++ {
					m := prev
					h := &hyp[g]
					m.step(g, x, curve.B, func(w writePred) {
						v := w.w01
						if centered {
							v = w.hd
						}
						h[w.offset-firstWriteOffset][i] = v
					})
					states[g][i] = m
				}
			}
		})

		if centered {
			for w, col := range cols {
				if col < 0 {
					continue
				}
				for i, tr := range c.Set.Traces {
					d := tr.Samples[col] - colMean[col]
					z[w][i] = d * d
				}
			}
		}

		// One correlation per guess and write, each a serial sum in
		// trace order. Jobs run write-major so a worker's consecutive
		// jobs read the same sample column.
		var rho [2 * mirrorWrites]float64
		var errs [2 * mirrorWrites]error
		fanOut(workers, len(rho), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				w, g := j/2, j%2
				if cols[w] < 0 {
					continue
				}
				if centered {
					rho[j] = pearsonScalar(hyp[g][w], z[w])
				} else {
					rho[j], errs[j] = trace.PearsonAt(c.Set, hyp[g][w], cols[w])
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
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
		// Re-derive the attacker's point stream: points are drawn
		// serially in index order (one RandomPoint call per trace), so
		// replaying the source over the restored prefix regenerates
		// Points exactly and leaves pointSrc positioned for the next
		// extension.
		camp.Points = make([]ec.Point, prev.Header.Watermark)
		for i := range camp.Points {
			camp.Points[i] = t.Curve.RandomPoint(pointSrc)
		}
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
