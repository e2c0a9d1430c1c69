package sensing

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"flexlevel/internal/noise"
)

func TestDefaultRuleValid(t *testing.T) {
	if err := DefaultRule().Validate(); err != nil {
		t.Fatalf("default rule invalid: %v", err)
	}
	bad := DefaultRule()
	bad.KBase = 0
	if bad.Validate() == nil {
		t.Error("zero KBase accepted")
	}
	bad = DefaultRule()
	bad.Target = 2
	if bad.Validate() == nil {
		t.Error("target >= 1 accepted")
	}
}

func TestRequiredLevelsMonotone(t *testing.T) {
	r := DefaultRule()
	prev := 0
	for _, pc := range []float64{1e-4, 1e-3, 3e-3, 5e-3, 7e-3, 1e-2, 1.3e-2, 1.7e-2} {
		l, ok := r.RequiredLevels(pc)
		if !ok && pc < 0.02 {
			t.Errorf("RequiredLevels(%g) not achievable", pc)
		}
		if l < prev {
			t.Errorf("RequiredLevels(%g) = %d decreased from %d", pc, l, prev)
		}
		prev = l
	}
}

func TestRequiredLevelsAnchors(t *testing.T) {
	r := DefaultRule()
	// Below the trigger: hard decision suffices.
	if l, ok := r.RequiredLevels(3e-3); !ok || l != 0 {
		t.Errorf("RequiredLevels(3e-3) = %d,%v, want 0,true", l, ok)
	}
	if l, ok := r.RequiredLevels(0); !ok || l != 0 {
		t.Errorf("RequiredLevels(0) = %d,%v, want 0,true", l, ok)
	}
	// Paper's headline: around 1e-2 the read needs several extra levels
	// ("7x latency" regime).
	if l, _ := r.RequiredLevels(1e-2); l < 3 {
		t.Errorf("RequiredLevels(1e-2) = %d, want >= 3", l)
	}
	// 1.7e-2 (paper's P/E 6000, 1 month ballpark) needs ~6.
	if l, _ := r.RequiredLevels(1.7e-2); l < 5 || l > 7 {
		t.Errorf("RequiredLevels(1.7e-2) = %d, want 5..7", l)
	}
	// Absurd BER: clamped, not ok.
	if l, ok := r.RequiredLevels(0.2); ok || l != MaxExtraLevels {
		t.Errorf("RequiredLevels(0.2) = %d,%v, want %d,false", l, ok, MaxExtraLevels)
	}
}

func TestTriggerBERNearPaperValue(t *testing.T) {
	// The calibration target: the first extra level triggers near 4e-3.
	trig := DefaultRule().TriggerBER()
	if trig < 3e-3 || trig > 5e-3 {
		t.Errorf("trigger BER = %g, want ~4e-3", trig)
	}
	// Consistency with RequiredLevels on either side.
	r := DefaultRule()
	if l, _ := r.RequiredLevels(trig * 0.95); l != 0 {
		t.Errorf("just below trigger needs %d levels", l)
	}
	if l, _ := r.RequiredLevels(trig * 1.05); l == 0 {
		t.Error("just above trigger needs no levels")
	}
}

func TestTimingTable6(t *testing.T) {
	tm := DefaultTiming()
	if tm.Read != 90*time.Microsecond {
		t.Errorf("Read = %v, want 90µs", tm.Read)
	}
	if tm.Program != 1000*time.Microsecond {
		t.Errorf("Program = %v, want 1000µs", tm.Program)
	}
	if tm.Erase != 3*time.Millisecond {
		t.Errorf("Erase = %v, want 3ms", tm.Erase)
	}
}

func TestReadLatencySevenX(t *testing.T) {
	// The paper's motivating claim: six extra levels make the read 7x
	// slower than a hard-decision read.
	tm := DefaultTiming()
	base := tm.ReadLatency(0)
	six := tm.ReadLatency(6)
	if ratio := float64(six) / float64(base); math.Abs(ratio-7) > 1e-9 {
		t.Errorf("latency ratio at 6 levels = %g, want 7", ratio)
	}
	if tm.ReadLatency(-3) != base {
		t.Error("negative levels should clamp to base latency")
	}
}

func quantizerUnderTest(t *testing.T, extra int) *Quantizer {
	t.Helper()
	lower := noise.Gaussian{Mu: 2.375, Sigma: 0.08}
	upper := noise.Gaussian{Mu: 3.025, Sigma: 0.08}
	q, err := NewQuantizer(lower, upper, 2.9, extra, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQuantizerValidation(t *testing.T) {
	g := noise.Gaussian{Mu: 1, Sigma: 0.1}
	h := noise.Gaussian{Mu: 2, Sigma: 0.1}
	if _, err := NewQuantizer(g, h, 1.5, -1, 0.05); err == nil {
		t.Error("negative levels accepted")
	}
	if _, err := NewQuantizer(g, h, 1.5, MaxExtraLevels+1, 0.05); err == nil {
		t.Error("too many levels accepted")
	}
	if _, err := NewQuantizer(g, h, 1.5, 2, 0); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := NewQuantizer(h, g, 1.5, 2, 0.05); err == nil {
		t.Error("inverted levels accepted")
	}
}

func TestQuantizerStructure(t *testing.T) {
	q := quantizerUnderTest(t, 4)
	bs := q.Boundaries()
	if len(bs) != 5 {
		t.Fatalf("boundaries = %d, want 5 (extra+1 passes)", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if d := bs[i] - bs[i-1]; math.Abs(d-0.06) > 1e-12 {
			t.Errorf("boundary spacing %g, want 0.06", d)
		}
	}
	// Centered on the nominal reference.
	mid := (bs[0] + bs[len(bs)-1]) / 2
	if math.Abs(mid-2.9) > 1e-12 {
		t.Errorf("boundaries centered at %g, want 2.9", mid)
	}
	if q.BinCount() != 6 {
		t.Errorf("bins = %d, want 6", q.BinCount())
	}
}

func TestQuantizerLLRSigns(t *testing.T) {
	q := quantizerUnderTest(t, 4)
	// Vth well below the boundary: strongly favors lower level (positive).
	if l := q.LLR(2.4); l <= 5 {
		t.Errorf("LLR(2.4) = %g, want strongly positive", l)
	}
	// Well above: strongly negative.
	if l := q.LLR(3.0); l >= -5 {
		t.Errorf("LLR(3.0) = %g, want strongly negative", l)
	}
	// LLR is non-increasing in Vth.
	prev := math.Inf(1)
	for v := 2.3; v <= 3.1; v += 0.01 {
		l := q.LLR(v)
		if l > prev+1e-9 {
			t.Errorf("LLR not monotone at %g: %g after %g", v, l, prev)
		}
		prev = l
	}
}

func TestQuantizerMoreLevelsFinerInformation(t *testing.T) {
	// With zero extra levels the LLR takes two values; with four it must
	// take more distinct values (finer soft information).
	distinct := func(extra int) int {
		q := quantizerUnderTest(t, extra)
		seen := map[float64]bool{}
		for v := 2.2; v <= 3.2; v += 0.005 {
			seen[q.LLR(v)] = true
		}
		return len(seen)
	}
	d0, d4 := distinct(0), distinct(4)
	if d0 != 2 {
		t.Errorf("0 extra levels gives %d distinct LLRs, want 2", d0)
	}
	if d4 <= d0 {
		t.Errorf("4 extra levels gives %d distinct LLRs, want more than %d", d4, d0)
	}
}

func TestQuantizerNearBoundaryWeak(t *testing.T) {
	// Soft sensing's value: near the decision boundary (the midpoint of
	// two equal-sigma levels) the LLR magnitude is small, far away it is
	// large.
	lower := noise.Gaussian{Mu: 2.375, Sigma: 0.08}
	upper := noise.Gaussian{Mu: 3.025, Sigma: 0.08}
	mid := (lower.Mu + upper.Mu) / 2
	q, err := NewQuantizer(lower, upper, mid, 6, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	near := math.Abs(q.LLR(mid))
	far := math.Abs(q.LLR(lower.Mu + 0.05))
	if near >= far {
		t.Errorf("near-boundary |LLR| %g should be below far |LLR| %g", near, far)
	}
}

// TestLevelTableMatchesRule is the equivalence property behind the fast
// read path: the inverted threshold table must agree with the bisection
// rule everywhere, including exactly at and adjacent to each threshold.
func TestLevelTableMatchesRule(t *testing.T) {
	r := DefaultRule()
	tab, err := TableFor(r)
	if err != nil {
		t.Fatalf("TableFor: %v", err)
	}
	check := func(pc float64) {
		t.Helper()
		wantL, wantOK := r.RequiredLevels(pc)
		gotL, gotOK := tab.RequiredLevels(pc)
		if gotL != wantL || gotOK != wantOK {
			t.Fatalf("pc=%.17g: table (%d,%v) != rule (%d,%v)", pc, gotL, gotOK, wantL, wantOK)
		}
	}
	// Dense log-uniform grid over every BER regime the simulator visits.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		pc := math.Exp(rng.Float64()*math.Log(0.5/1e-8) + math.Log(1e-8))
		check(pc)
	}
	// Probe each precomputed threshold and its float neighbours: these
	// are the only places the table could disagree with the rule.
	for l := 0; l <= MaxExtraLevels; l++ {
		for _, thr := range []float64{tab.okBelow[l], tab.failAt[l]} {
			for _, pc := range []float64{
				math.Nextafter(thr, 0), thr, math.Nextafter(thr, 1),
				thr * (1 - 1e-12), thr * (1 + 1e-12),
			} {
				check(pc)
			}
		}
	}
	check(0)
	check(-1e-3)
	check(1)
}

func TestLevelTableValidation(t *testing.T) {
	bad := DefaultRule()
	bad.KStep = 0
	if _, err := TableFor(bad); err == nil {
		t.Error("invalid rule accepted")
	}
	nan := DefaultRule()
	nan.Target = math.NaN()
	if _, err := TableFor(nan); err == nil {
		t.Error("NaN target accepted")
	}
}
