package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is the index of the
// enclosing span (-1 for a root) and Request groups the spans of one
// request or cell.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory and per-call histograms for calls too
// frequent to keep one span each. A nil *tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	hists  map[string]*histogram
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), hists: map[string]*histogram{}}
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Request: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// merge folds a per-goroutine histogram into the named aggregate.
func (t *tracer) merge(name string, h *histogram) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.hists[name]
	if agg == nil {
		agg = &histogram{}
		t.hists[name] = agg
	}
	agg.merge(h)
}

// selfTimes fills each span's SelfNS: its duration minus the part of
// it that its children cover (overlapping children count once).
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, curStart, curEnd int64 = 0, 0, -1
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.SelfNS) / 1e9
	}
	return out
}

// histSummary is how a per-call histogram is written out.
type histSummary struct {
	Count  int64   `json:"count"`
	SumNS  float64 `json:"sum_ns"`
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  float64 `json:"max_ns"`
	Source string  `json:"source"`
}

// write saves the spans (with self times) and histogram summaries as
// JSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	doc := struct {
		Spans      []span                 `json:"spans"`
		Histograms map[string]histSummary `json:"histograms"`
	}{Spans: t.spans, Histograms: map[string]histSummary{}}
	for k, h := range t.hists {
		doc.Histograms[k] = histSummary{
			Count: h.count, SumNS: h.sum, P50NS: h.quantile(50), P99NS: h.quantile(99), MaxNS: h.max,
			Source: "per-call timings aggregated in a log-linear histogram (within 0.4% of the exact quantile)",
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// histogram is a log-linear histogram of nanosecond durations: values
// below 256 are exact, larger values fall into 128 linear sub-buckets
// per power of two, so a quantile is within 0.4% of the true value.
// Recording is O(1) and allocation-free, memory is fixed (64 KiB), and
// histograms merge by addition.
type histogram struct {
	buckets [64 << subBits]int64
	count   int64
	sum     float64
	max     float64
}

const subBits = 7

func bucketOf(ns int64) int {
	if ns < 1<<(subBits+1) {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ns in [2^exp, 2^(exp+1))
	sub := int(ns>>(exp-subBits)) & (1<<subBits - 1)
	return (exp-subBits)<<subBits + 1<<subBits + sub
}

// bucketRange returns the values bucket i holds: [lo, lo+width).
func bucketRange(i int) (lo, width float64) {
	if i < 1<<(subBits+1) {
		return float64(i), 1
	}
	exp := (i-1<<subBits)>>subBits + subBits
	sub := i & (1<<subBits - 1)
	width = float64(uint64(1) << (exp - subBits))
	return float64(uint64(1)<<exp) + float64(sub)*width, width
}

func (h *histogram) record(d time.Duration) {
	ns := d.Nanoseconds()
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += float64(ns)
	if float64(ns) > h.max {
		h.max = float64(ns)
	}
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.max = math.Max(h.max, o.max)
}

// quantile returns the p-th percentile in nanoseconds: the nearest
// rank's bucket, interpolated linearly by rank within the bucket.
func (h *histogram) quantile(p float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		if seen+c >= rank {
			lo, width := bucketRange(i)
			return math.Min(lo+width*(float64(rank-seen)-0.5)/float64(c), h.max)
		}
		seen += c
	}
	return h.max
}
