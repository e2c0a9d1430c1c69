// Command perfbench is the repository benchmark: it runs one workload
// against the simulator's public APIs for a fixed time, checks the
// outputs, and prints every metric by name with its unit and sample
// count, ending with one JSON line:
//
//	go run . --workload fig6a --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured
// untraced. With --trace 1 the run also times the benchmark's calls
// into each layer, writes the spans under .bench_build/perfbench/, and
// the JSON carries the per-layer metrics. README.md explains the
// workloads and what each metric means.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runOpts is what a workload needs from the command line.
type runOpts struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on untraced runs
}

// workloads maps a workload name to its run function.
var workloads = map[string]func(runOpts, *report) error{
	"fig6a":       runFig6a,
	"serve-read":  serveRead.run,
	"serve-write": serveWrite.run,
	"lifetime":    runLifetime,
}

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one of them; README.md defines each per workload.
var endToEnd = []string{
	"setup_s", "wall_s", "ops_per_s", "lat_p50_us", "lat_p99_us", "ok_ratio", "peak_rss_mb",
}

// perLayer lists the metrics of a traced run with their units. A
// workload that does not exercise a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"bench.trace_overhead_pct", "%"}, {"bench.fail_ratio", "ratio"},
	{"sim_resp_reduction_pct", "%"}, {"sim_write_increase_pct", "%"}, {"sim_lat_p99_us", "us"},
	{"trace.generate_s", "s"},
	{"core.new_runner_s", "s"}, {"core.prepare_s", "s"}, {"core.step_us_p50", "us"}, {"core.step_us_p99", "us"}, {"core.step_busy_s", "s"},
	{"ssd.level_cache_misses", "count"}, {"ssd.level_cache_miss_ratio", "ratio"}, {"core.ber_cache_miss_ratio", "ratio"},
	{"ssd.extra_levels_per_read", "levels"}, {"ssd.sensing_attempts_per_read", "count"}, {"ssd.unreadable", "count"},
	{"accesseval.migrations", "count"}, {"accesseval.evictions", "count"},
	{"ftl.erases", "count"}, {"ftl.gc_programs", "count"}, {"ftl.write_amp", "ratio"},
	{"ftl.journal_flushes", "count"}, {"ftl.meta_programs", "count"},
	{"ftl.meta_bytes", "B"}, {"exp.lifetime_heap_mb", "MB"}, {"exp.lifetime_sim_ops_per_s", "1/s"},
	{"runner.speedup", "x"}, {"runner.shard_s_max", "s"}, {"runner.alloc_mb", "MB"},
	{"server.http_us_p50", "us"}, {"server.http_us_p99", "us"}, {"server.handler_us_p50", "us"}, {"server.handler_us_p99", "us"},
	{"core.stepat_us_p50", "us"}, {"core.stepat_us_p99", "us"}, {"ssd.read_us_p50", "us"}, {"ssd.write_us_p50", "us"},
	{"server.http_share", "ratio"}, {"server.metrics_scrape_us", "us"},
	{"server.shed", "count"}, {"server.queue_full", "count"}, {"server.deadline_exceeded", "count"}, {"server.new_conns", "count"},
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fig6a, serve-read, serve-write or lifetime")
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		o.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep := newReport()
	if err := fn(o, rep); err != nil {
		rep.fail("%s: %v", *workload, err)
	}

	want := endToEnd
	if o.tr != nil {
		want = nil
		for _, m := range perLayer {
			want = append(want, m.name)
			if _, ok := rep.metrics[m.name]; !ok {
				rep.setNote(m.name, m.unit, 0, 0, "not exercised by this workload")
			} else if got := rep.metrics[m.name].Unit; got != m.unit {
				rep.fail("metric %s measured in %s, listed in %s", m.name, got, m.unit)
			}
		}
		path, err := o.tr.write(filepath.Join(".bench_build", "perfbench"), fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err != nil {
			rep.fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %s\n", path)
			printSelfTimes(o.tr)
		}
	}
	fmt.Println("metrics:")
	rep.printTable(os.Stdout)
	line, ok := rep.resultJSON(want)
	for _, f := range rep.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: no result: nothing was attempted")
		return 1
	}
	fmt.Println(string(line))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printSelfTimes prints the self time of each span name, largest first.
func printSelfTimes(t *tracer) {
	self := selfByName(t.spans)
	var keys []string
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return self[keys[a]] > self[keys[b]] })
	fmt.Println("span self time:")
	for i, k := range keys {
		if i == 12 {
			fmt.Printf("  ... %d more span names in the spans file\n", len(keys)-i)
			break
		}
		fmt.Printf("  %-48s %10.4f s\n", k, self[k])
	}
}
