package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/trace"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := pickPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("pickPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSweepLatencyReportsSampleCount(t *testing.T) {
	fast, slow := make([]float64, 1000), make([]float64, 1000)
	for i := range fast {
		fast[i] = float64(1000 - i) // 1..1000, unsorted
		slow[i] = 10 * fast[i]
	}
	rep := newReport()
	rep.setSweepLatency("p50", "p99", "us", [][]float64{fast, fast, slow})
	if m := rep.metrics["p50"]; m.Value != 500 || m.Samples != 3000 {
		t.Errorf("p50 = %+v, want 500 (the median sweep's) over 3000 samples", m)
	}
	m := rep.metrics["p99"]
	if m.Value != 990 || m.Samples != 3000 || !strings.Contains(m.Note, "highest supported per sweep: p99") {
		t.Errorf("p99 = %+v, want 990 over 3000 samples noting p99 as the highest supported", m)
	}
}

func TestFailRatioCountsRefusalsAndTransportErrors(t *testing.T) {
	tenants := trace.DefaultTenants(1 << 15)
	read := serveOp{Tenant: 0, LPN: 7, Pages: 2}
	var r connResult
	r.settle(read, tenants, 200, []byte(`{"tenant":"oltp","lpn":7,"pages":2,"latency_us":100}`), nil, time.Millisecond)
	r.settle(read, tenants, 429, []byte(`{"error":"shed","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 429, []byte(`{"error":"queue_full","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 503, []byte(`{"error":"read_only","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 504, []byte(`{"error":"deadline_exceeded","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 0, nil, errors.New("connection reset"), time.Millisecond)
	r.settle(read, tenants, 500, []byte(`{"error":"internal","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 503, []byte(`{"error":"mystery","message":"x"}`), nil, time.Millisecond)
	r.settle(read, tenants, 200, []byte(`not json`), nil, time.Millisecond)
	r.settle(read, tenants, 200, []byte(`{"tenant":"oltp","lpn":8,"pages":2,"latency_us":100}`), nil, time.Millisecond)

	want := outcomes{OK: 1, Refused: 2, Retryable: 1, Deadline: 1, Errors: 5}
	if r.out != want {
		t.Fatalf("outcomes = %+v, want %+v", r.out, want)
	}
	if got := r.out.failRatio(); got != 0.9 {
		t.Errorf("failRatio = %v, want 0.9 (9 of 10 requests got no 200)", got)
	}
	if r.firstErr == "" {
		t.Error("the first error was not kept")
	}
	if (outcomes{}).failRatio() != 0 {
		t.Error("failRatio of nothing attempted is not 0")
	}
}

func TestOpStreamSeeded(t *testing.T) {
	tenants := trace.DefaultTenants(1 << 15)
	a := newOpStream(1, 0, 0.8, tenants).take(2000)
	b := newOpStream(1, 0, 0.8, tenants).take(2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different op streams")
	}
	if reflect.DeepEqual(a, newOpStream(2, 0, 0.8, tenants).take(2000)) {
		t.Error("a different seed gave the same op stream")
	}
	if reflect.DeepEqual(a, newOpStream(1, 1, 0.8, tenants).take(2000)) {
		t.Error("two connections of one seed got the same op stream")
	}
	writes := 0
	for _, op := range a {
		ws := tenants[op.Tenant].WorkingSet
		if op.Pages < 1 || op.Pages > maxOpPages || op.LPN+uint64(op.Pages) > ws {
			t.Fatalf("op %+v leaves tenant window of %d pages", op, ws)
		}
		if op.Write {
			writes++
		}
	}
	if share := float64(writes) / float64(len(a)); math.Abs(share-0.2) > 0.03 {
		t.Errorf("write share %.3f, want about 0.2", share)
	}
}

// benchmarkFile mirrors the fields of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	var all []string
	all = append(all, endToEnd...)
	for _, m := range perLayer {
		all = append(all, m.name)
	}
	for _, name := range all {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
		if seen[name] {
			t.Errorf("metric name %q listed twice", name)
		}
		seen[name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark reports %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s in %s, benchmark reports %s in %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

func TestHistogramQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	xs := make([]float64, 50000)
	for i := range xs {
		d := time.Duration(rng.ExpFloat64() * 5e4)
		xs[i] = float64(d.Nanoseconds())
		h.record(d)
	}
	sort.Float64s(xs)
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact, got := quantile(xs, p), h.quantile(p)
		if math.Abs(got-exact) > 0.004*exact+1 {
			t.Errorf("p%g = %.1f, exact %.1f", p, got, exact)
		}
	}
	var a, b histogram
	for i, x := range xs {
		if i%2 == 0 {
			a.record(time.Duration(x))
		} else {
			b.record(time.Duration(x))
		}
	}
	a.merge(&b)
	if a.count != h.count || a.quantile(99) != h.quantile(99) {
		t.Error("merged halves differ from the whole")
	}
}

func TestAckSetDense(t *testing.T) {
	var a, b ackSet
	for seq := uint64(1); seq <= 200; seq++ {
		if seq%3 == 0 {
			a.add(seq)
		} else {
			b.add(seq)
		}
	}
	a.merge(&b)
	if !a.dense() || a.n != 200 {
		t.Fatalf("1..200 split over two sets: dense %v, n %d", a.dense(), a.n)
	}
	var gap ackSet
	gap.add(1)
	gap.add(3)
	if gap.dense() {
		t.Error("{1,3} counted as dense")
	}
	var dup ackSet
	dup.add(1)
	dup.add(2)
	dup.add(2)
	if dup.dense() || dup.dups != 1 {
		t.Errorf("{1,2,2}: dense %v, dups %d", dup.dense(), dup.dups)
	}
	a.merge(&dup)
	if a.dups != 3 {
		t.Errorf("merging {1,2,2} into 1..200 counted %d duplicates, want 3", a.dups)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 70, End: 80, Parent: 0},
		{Name: "a.child", Start: 12, End: 18, Parent: 1},
	}
	selfTimes(spans)
	for i, want := range []int64{50, 14, 30, 10, 6} {
		if spans[i].SelfNS != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].SelfNS, want)
		}
	}
}

func TestResultJSON(t *testing.T) {
	rep := newReport()
	rep.attempted = 3
	rep.set("x_s", "s", 1.25, 3)
	b, ok := rep.resultJSON([]string{"x_s", "missing"})
	if !ok {
		t.Fatal("no result line")
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] != false {
		t.Errorf("result %s: want the four result keys with correct=false for a missing metric", b)
	}
	if _, ok := newReport().resultJSON(nil); ok {
		t.Error("a run that attempted nothing printed a result")
	}
}
