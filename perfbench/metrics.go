package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"syscall"
)

// metric is one reported number: its value, unit and the count of
// samples it summarises (1 for a single measurement).
type metric struct {
	Value   float64
	Unit    string
	Samples int
	Note    string // extra context for the human-readable table
}

// report collects everything one run prints: the metrics in insertion
// order, the attempted/failed op counts and every failed correctness
// check.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; setting the same name twice is a bug in the
// benchmark, so it is reported as a failed check rather than hidden.
func (r *report) set(name, unit string, value float64, samples int) {
	r.setNote(name, unit, value, samples, "")
}

func (r *report) setNote(name, unit string, value float64, samples int, note string) {
	if _, dup := r.metrics[name]; dup {
		r.fail("metric %s reported twice", name)
		return
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples, Note: note}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// metricName is the pattern every metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// printTable writes the human-readable metric table.
func (r *report) printTable(w io.Writer) {
	for _, name := range r.names {
		m := r.metrics[name]
		line := fmt.Sprintf("  %-32s %14.6g %-6s n=%d", name, m.Value, m.Unit, m.Samples)
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the final line of standard output: the run's result.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the result line for the named metrics. A wanted
// metric the run did not produce, or one with a bad name or a value that
// is not a finite number, fails the run.
func (r *report) resultJSON(want []string) ([]byte, bool) {
	out := resultLine{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, name := range want {
		m, ok := r.metrics[name]
		switch {
		case !ok:
			r.fail("metric %s was not measured", name)
		case !metricName.MatchString(name):
			r.fail("metric name %q is not [A-Za-z0-9_.-]+", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.fail("metric %s is %v", name, m.Value)
		default:
			out.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	out.Correct = len(r.failures) == 0
	if out.Attempted < 1 {
		return nil, false
	}
	b, err := json.Marshal(out)
	return b, err == nil
}

// percentiles are the ranks the picker chooses from, lowest first.
var percentiles = []float64{50, 90, 99, 99.9, 99.99}

// pickPercentile returns the highest percentile in percentiles with at
// least ten samples beyond it in a sample of n, and false when even the
// median has fewer than ten beyond it.
func pickPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentiles {
		// The tolerance absorbs rounding in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank p-th percentile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (the mean of the middle two for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setUnitLatency records the p50 and p99 latency of a workload measured
// in repeated units of work (sweeps or serve passes). Each percentile is
// taken within each unit and the median over the units is reported, so
// one slow unit moves it little. perUnit is one unit's sample count.
func (r *report) setUnitLatency(p50Name, p99Name, unit, unitName string, p50s, p99s []float64, perUnit, total int) {
	supported := "none"
	if p, ok := pickPercentile(perUnit); ok {
		supported = fmt.Sprintf("p%g", p)
	}
	note := fmt.Sprintf("median over %d of each %s's percentile over %d samples (highest supported per %s: %s)",
		len(p50s), unitName, perUnit, unitName, supported)
	r.setNote(p50Name, unit, median(p50s), total, note)
	r.setNote(p99Name, unit, median(p99s), total, note)
}

// setSweepLatency records the p50 and p99 cell wall times of a sweep
// workload from each sweep's cell times.
func (r *report) setSweepLatency(p50Name, p99Name, unit string, sweeps [][]float64) {
	var p50s, p99s []float64
	total := 0
	for _, cells := range sweeps {
		q := sortedQuantile(cells)
		p50s = append(p50s, q(50))
		p99s = append(p99s, q(99))
		total += len(cells)
	}
	r.setUnitLatency(p50Name, p99Name, unit, "sweep", p50s, p99s, len(sweeps[0]), total)
}

// sortedQuantile returns a quantile function over a sorted copy of xs.
func sortedQuantile(xs []float64) func(p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return func(p float64) float64 { return quantile(s, p) }
}

// ackSet records the acknowledged write sequences of one tenant as a
// bitset, so a long run audits every ack in a few KiB.
type ackSet struct {
	bits []uint64
	n    int64 // acks added
	dups int64 // acks whose sequence was already present
}

func (a *ackSet) add(seq uint64) {
	w := seq / 64
	for uint64(len(a.bits)) <= w {
		a.bits = append(a.bits, 0)
	}
	if a.bits[w]&(1<<(seq%64)) != 0 {
		a.dups++
	}
	a.bits[w] |= 1 << (seq % 64)
	a.n++
}

func (a *ackSet) merge(o *ackSet) {
	for len(a.bits) < len(o.bits) {
		a.bits = append(a.bits, 0)
	}
	for i, w := range o.bits {
		a.dups += int64(bits.OnesCount64(a.bits[i] & w))
		a.bits[i] |= w
	}
	a.n += o.n
	a.dups += o.dups
}

// dense reports whether the acks are exactly the sequences 1..n, each
// seen once: with no duplicate and no sequence 0, n distinct positive
// sequences fill 1..n exactly when the highest of them is n.
func (a *ackSet) dense() bool {
	if a.dups != 0 || (len(a.bits) > 0 && a.bits[0]&1 != 0) {
		return false
	}
	return a.n == 0 || highestBit(a.bits) == uint64(a.n)
}

// highestBit returns the largest set position in bits.
func highestBit(bs []uint64) uint64 {
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i] != 0 {
			return uint64(i)*64 + uint64(bits.Len64(bs[i])-1)
		}
	}
	return 0
}

// outcomes counts what happened to the requests of a serve run.
type outcomes struct {
	OK        int64 // 200
	Refused   int64 // 429 shed or queue_full: admission said no
	Retryable int64 // typed 503 (read_only, power_loss, draining)
	Deadline  int64 // 504
	Errors    int64 // any other status, unparseable body, or transport error
}

func (o *outcomes) add(x outcomes) {
	o.OK += x.OK
	o.Refused += x.Refused
	o.Retryable += x.Retryable
	o.Deadline += x.Deadline
	o.Errors += x.Errors
}

func (o outcomes) attempted() int64 { return o.OK + o.Refused + o.Retryable + o.Deadline + o.Errors }

// failRatio is every request that did not get a 200 — refusals and
// transport errors included — over every request attempted.
func (o outcomes) failRatio() float64 {
	n := o.attempted()
	if n == 0 {
		return 0
	}
	return float64(n-o.OK) / float64(n)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
