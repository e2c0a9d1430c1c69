// Package sensing models the soft-decision sensing machinery whose cost
// FlexLevel attacks: how many extra sensing levels an LDPC read needs at
// a given raw BER (paper Table 5's rule), what each extra level costs in
// read latency (Table 6 timing), and how sensed Vth values quantize into
// LLRs for the decoder.
package sensing

import (
	"fmt"
	"math"
	"sync"
	"time"

	"flexlevel/internal/noise"
	"flexlevel/internal/uber"
)

// MaxExtraLevels is the most soft sensing levels the controller supports
// per read reference. The paper's Table 5 tops out at 6.
const MaxExtraLevels = 7

// LevelRule maps raw BER to the number of extra soft sensing levels the
// LDPC decoder needs to reach the UBER target. The LDPC correction
// capability grows with soft information: with L extra levels the code
// behaves like a code correcting KBase + KStep*L bits of the paper's
// rate-8/9 codeword (calibrated against LDPC-in-SSD [2]; see DESIGN.md).
type LevelRule struct {
	Code   uber.Code
	Target float64
	KBase  int // correctable bits with hard-decision sensing
	KStep  int // additional correctable bits per extra sensing level
}

// DefaultRule returns the calibrated rule for the paper's rate-8/9 code
// over 4KB blocks with the 1e-15 UBER target. KBase and KStep were fit
// so the trigger BER (where the first extra level becomes necessary)
// lands at the paper's 4e-3 and the Table 5 progression is reproduced.
func DefaultRule() LevelRule {
	return LevelRule{
		Code:   uber.PaperCode(),
		Target: uber.TargetUBER,
		KBase:  245,
		KStep:  97,
	}
}

// Validate reports structural problems.
func (r LevelRule) Validate() error {
	if err := r.Code.Validate(); err != nil {
		return err
	}
	if !(r.Target > 0 && r.Target < 1) { // NaN fails too
		return fmt.Errorf("sensing: target UBER %g out of range", r.Target)
	}
	if r.KBase <= 0 || r.KStep <= 0 {
		return fmt.Errorf("sensing: non-positive KBase/KStep %d/%d", r.KBase, r.KStep)
	}
	return nil
}

// RequiredLevels returns the smallest number of extra sensing levels
// whose correction capability meets the UBER target at raw BER pc.
// ok is false when even MaxExtraLevels is insufficient (the page is
// effectively unreadable and must be refreshed or retired); the level
// count is then clamped to MaxExtraLevels.
func (r LevelRule) RequiredLevels(pc float64) (levels int, ok bool) {
	if pc <= 0 {
		return 0, true
	}
	k, ok := uber.RequiredK(r.Code, pc, r.Target)
	if !ok {
		return MaxExtraLevels, false
	}
	if k <= r.KBase {
		return 0, true
	}
	levels = (k - r.KBase + r.KStep - 1) / r.KStep
	if levels > MaxExtraLevels {
		return MaxExtraLevels, false
	}
	return levels, true
}

// LevelTable is an inverted LevelRule and the only way the simulator
// evaluates it on the read path. RequiredLevels on the rule runs a
// binary search whose every probe sums a log-domain binomial tail — ~17
// tail evaluations per call. The table instead precomputes, once per
// process (TableFor), the highest raw BER each level count can tolerate
// (there are only MaxExtraLevels+1 of them), turning a lookup into at
// most 8 float comparisons. The rule stays as the oracle the table is
// tested against.
//
// Lookups agree exactly with the rule: the per-level bisection keeps an
// explicit bracket [okBelow, failAt) — okBelow is a BER proven to meet
// the target, failAt one proven to miss it — and any pc landing inside
// the (≈1e-13 relative) bracket is resolved with the rule's own
// uber.MeetsTarget predicate. Equivalence holds because the binomial
// tail is monotone in both k and pc: the rule's bucketed
// ceil((RequiredK-KBase)/KStep) equals the smallest L whose capability
// KBase+L*KStep meets the target, which is what the table answers.
//
// A table is immutable after construction, so one instance is safe to
// share across goroutines.
type LevelTable struct {
	rule    LevelRule
	okBelow [MaxExtraLevels + 1]float64 // highest pc proven to meet the target with L levels
	failAt  [MaxExtraLevels + 1]float64 // lowest pc proven to miss it
}

// tables memoizes TableFor by rule value.
var tables struct {
	sync.Mutex
	byRule map[LevelRule]*LevelTable
}

// TableFor returns the process-wide level table for rule, building it on
// first use. Every device reading under the same rule shares the one
// immutable instance, so the ~10 ms of tail evaluations a build costs
// is paid once per process, not once per device.
func TableFor(rule LevelRule) (*LevelTable, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	tables.Lock()
	defer tables.Unlock()
	if t, ok := tables.byRule[rule]; ok {
		return t, nil
	}
	t := newLevelTable(rule)
	if tables.byRule == nil {
		tables.byRule = make(map[LevelRule]*LevelTable)
	}
	tables.byRule[rule] = t
	return t, nil
}

// newLevelTable precomputes the BER thresholds for a validated rule.
func newLevelTable(rule LevelRule) *LevelTable {
	t := &LevelTable{rule: rule}
	for l := 0; l <= MaxExtraLevels; l++ {
		k := rule.KBase + l*rule.KStep
		lo, hi := 1e-18, 1.0
		if !uber.MeetsTarget(rule.Code, k, lo, rule.Target) {
			// Degenerate rule: even a vanishing BER misses the target.
			// Keep the bracket honest; every lookup falls back.
			t.okBelow[l], t.failAt[l] = 0, lo
			continue
		}
		// Geometric bisection: BER thresholds span decades, so halve the
		// bracket's log-width each step. 90 steps shrink the initial 18
		// decades far below float64 spacing.
		for i := 0; i < 90 && hi-lo > lo*1e-13; i++ {
			mid := math.Sqrt(lo * hi)
			if uber.MeetsTarget(rule.Code, k, mid, rule.Target) {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.okBelow[l], t.failAt[l] = lo, hi
	}
	return t
}

// Rule returns the rule the table inverts.
func (t *LevelTable) Rule() LevelRule { return t.rule }

// RequiredLevels returns exactly what t.Rule().RequiredLevels returns.
func (t *LevelTable) RequiredLevels(pc float64) (levels int, ok bool) {
	levels, ok, _ = t.Lookup(pc)
	return levels, ok
}

// Lookup is RequiredLevels that also reports whether the thresholds
// alone answered: probed is true when pc fell inside a bracket and the
// rule's uber.MeetsTarget predicate had to run.
func (t *LevelTable) Lookup(pc float64) (levels int, ok, probed bool) {
	if pc <= 0 {
		return 0, true, false
	}
	for l := 0; l <= MaxExtraLevels; l++ {
		if pc <= t.okBelow[l] {
			return l, true, probed
		}
		if pc < t.failAt[l] {
			probed = true
			if uber.MeetsTarget(t.rule.Code, t.rule.KBase+l*t.rule.KStep, pc, t.rule.Target) {
				return l, true, true
			}
		}
	}
	return MaxExtraLevels, false, probed
}

// TriggerBER returns the raw BER above which the first extra sensing
// level becomes necessary — the paper quotes 4e-3 for its code. Found by
// bisection on the monotone RequiredLevels rule.
func (r LevelRule) TriggerBER() float64 {
	lo, hi := 1e-6, 0.5
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: BER spans decades
		if l, _ := r.RequiredLevels(mid); l == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// Timing is the NAND operation latency model of paper Table 6, plus the
// cost of soft sensing: each extra sensing level re-senses and re-
// transfers the page, adding one base read latency — which reproduces
// the paper's "7x higher read latency" at six extra levels.
type Timing struct {
	Read          time.Duration // base read: sense + transfer
	Program       time.Duration
	Erase         time.Duration
	ExtraPerLevel time.Duration // added per extra soft sensing level
	Decode        time.Duration // LDPC decode pipeline cost per read
}

// DefaultTiming returns Table 6: read 90µs, program 1000µs, erase 3ms.
func DefaultTiming() Timing {
	return Timing{
		Read:          90 * time.Microsecond,
		Program:       1000 * time.Microsecond,
		Erase:         3 * time.Millisecond,
		ExtraPerLevel: 90 * time.Microsecond,
		Decode:        0,
	}
}

// ReadLatency returns the latency of a read that needs extraLevels soft
// sensing levels.
func (t Timing) ReadLatency(extraLevels int) time.Duration {
	if extraLevels < 0 {
		extraLevels = 0
	}
	return t.Read + time.Duration(extraLevels)*t.ExtraPerLevel + t.Decode
}

// CalibrationLatency returns the cost of a read-threshold recalibration
// that issued probes re-sense probes: each probe senses the page once at
// a candidate reference shift and runs the decode pipeline to observe
// the levels needed there. Extra soft levels are not charged per probe —
// a probe is a single hard sense; the ladder pays for soft levels only
// on the final re-read it actually serves.
func (t Timing) CalibrationLatency(probes int) time.Duration {
	if probes < 0 {
		probes = 0
	}
	return time.Duration(probes) * (t.Read + t.Decode)
}

// Quantizer converts a sensed Vth around one read reference into an LLR
// using extra sensing levels: L extra reference voltages spaced Delta
// apart split the boundary region into L+1 bins, and each bin's LLR is
// the log ratio of the two adjacent levels' probability masses in it.
type Quantizer struct {
	Lower, Upper noise.Gaussian // Vth distributions of the two levels
	Boundary     float64        // nominal read reference
	ExtraLevels  int
	Delta        float64 // spacing of the extra references

	bounds []float64 // len ExtraLevels, ascending, centered on Boundary
	llrs   []float64 // len ExtraLevels+1, LLR per bin
}

// NewQuantizer builds the bin boundaries and per-bin LLRs.
func NewQuantizer(lower, upper noise.Gaussian, boundary float64, extraLevels int, delta float64) (*Quantizer, error) {
	if extraLevels < 0 || extraLevels > MaxExtraLevels {
		return nil, fmt.Errorf("sensing: extra levels %d out of [0,%d]", extraLevels, MaxExtraLevels)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("sensing: non-positive delta %g", delta)
	}
	if lower.Mu >= upper.Mu {
		return nil, fmt.Errorf("sensing: lower level mean %g not below upper %g", lower.Mu, upper.Mu)
	}
	q := &Quantizer{
		Lower: lower, Upper: upper,
		Boundary: boundary, ExtraLevels: extraLevels, Delta: delta,
	}
	// Reference voltages: the nominal boundary plus extraLevels extra
	// refs spread symmetrically around it.
	n := extraLevels + 1 // total sensing passes
	q.bounds = make([]float64, n)
	for i := 0; i < n; i++ {
		q.bounds[i] = boundary + delta*(float64(i)-float64(n-1)/2)
	}
	q.llrs = make([]float64, n+1)
	for bin := 0; bin <= n; bin++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		if bin > 0 {
			lo = q.bounds[bin-1]
		}
		if bin < n {
			hi = q.bounds[bin]
		}
		p0 := mass(lower, lo, hi)
		p1 := mass(upper, lo, hi)
		q.llrs[bin] = clampLLR(math.Log(p0 / p1))
	}
	return q, nil
}

func mass(g noise.Gaussian, lo, hi float64) float64 {
	m := g.CDF(hi) - g.CDF(lo)
	if m < 1e-300 {
		m = 1e-300
	}
	return m
}

func clampLLR(x float64) float64 {
	const lim = 40
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// Shifted rebuilds the quantizer with the nominal boundary (and every
// extra sensing reference with it) moved by shift volts — the bracket a
// calibrated read senses against. The level distributions stay put; only
// the references move.
func (q *Quantizer) Shifted(shift float64) (*Quantizer, error) {
	return NewQuantizer(q.Lower, q.Upper, q.Boundary+shift, q.ExtraLevels, q.Delta)
}

// Boundaries returns the sensing reference voltages, ascending.
func (q *Quantizer) Boundaries() []float64 {
	out := make([]float64, len(q.bounds))
	copy(out, q.bounds)
	return out
}

// LLR returns the log-likelihood ratio (positive favors the lower
// level / bit 0) for a sensed Vth.
func (q *Quantizer) LLR(vth float64) float64 {
	bin := 0
	for bin < len(q.bounds) && vth >= q.bounds[bin] {
		bin++
	}
	return q.llrs[bin]
}

// BinCount returns the number of quantization bins (ExtraLevels + 2
// sensing passes produce ExtraLevels + 2 bins... precisely: passes =
// ExtraLevels+1, bins = passes+1).
func (q *Quantizer) BinCount() int { return len(q.llrs) }
