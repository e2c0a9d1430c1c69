package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/ftl"
	"flexlevel/internal/runner"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// fig6aRequests is the per-trace request count of the paper grid (the
// CLI default).
const fig6aRequests = 60000

func fig6aConfig(seed int64, onSummary func(*runner.Summary)) exp.SimConfig {
	cfg := exp.DefaultSim()
	cfg.Requests = fig6aRequests
	cfg.Seed = seed
	cfg.Parallel = runtime.NumCPU()
	cfg.OnSummary = onSummary
	return cfg
}

// generateTraces builds the seven input traces of the grid.
func generateTraces(seed int64) ([][]trace.Request, error) {
	logical := core.DefaultOptions(core.Baseline, exp.DefaultSim().PE).SSD.FTL.LogicalPages
	var out [][]trace.Request
	for _, w := range trace.Workloads(fig6aRequests, logical, seed) {
		reqs, err := w.Generate()
		if err != nil {
			return nil, err
		}
		out = append(out, reqs)
	}
	return out, nil
}

// runFig6a times whole Fig. 6(a) sweeps through exp.Fig6a until the run
// time is spent.
func runFig6a(o runOpts, rep *report) error {
	// Set-up: generating the seven input traces, the work every cell
	// repeats for its own trace before replaying it.
	var setups []float64
	var first [][]trace.Request
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		traces, err := generateTraces(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if first == nil {
			first = traces
		} else {
			rep.check(reflect.DeepEqual(first, traces), "trace generation is not deterministic for seed %d", o.seed)
		}
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	perSweep := int64(len(first) * len(core.Systems()))
	first = nil // the sweep generates its own; do not hold these during it

	var (
		walls []float64
		cells [][]float64
		sums  []*runner.Summary
		data  []*exp.Fig6aData
	)
	deadline := time.Now().Add(o.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		var sum *runner.Summary
		t0 := time.Now()
		d, err := exp.Fig6a(fig6aConfig(o.seed, func(s *runner.Summary) { sum = s }))
		wall := time.Since(t0).Seconds()
		rep.attempted += perSweep
		if err != nil {
			rep.failed += perSweep
			return err
		}
		walls = append(walls, wall)
		sums = append(sums, sum)
		data = append(data, d)
		var sweepCells []float64
		for _, s := range sum.PerShard {
			sweepCells = append(sweepCells, s.Seconds*1e6)
		}
		cells = append(cells, sweepCells)
	}

	// Correctness: every sweep of the run reproduces the first exactly,
	// and FlexLevel answers faster than LDPC-in-SSD, the paper's claim.
	for i := 1; i < len(data); i++ {
		rep.check(reflect.DeepEqual(data[0], data[i]), "sweep %d differs from sweep 1 for the same seed", i+1)
	}
	d := data[0]
	red := d.MeanReduction(core.FlexLevel, core.LDPCInSSD)
	rep.check(red > 0, "FlexLevel mean response is not below LDPC-in-SSD's (reduction %.3f)", red)

	requests := float64(fig6aRequests * len(d.Workloads) * len(d.Systems))
	var rates []float64
	for _, w := range walls {
		rates = append(rates, requests/w)
	}
	rep.set("wall_s", "s", median(walls), len(walls))
	rep.set("ops_per_s", "1/s", median(rates), len(rates))
	rep.setSweepLatency("lat_p50_us", "lat_p99_us", "us", cells)
	rep.set("ok_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), int(rep.attempted))
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.set("bench.fail_ratio", "ratio", 0, int(rep.attempted))

	if o.tr == nil {
		return nil
	}
	setFig6aSim(rep, d)
	setSummaryLayers(rep, sums)
	return replayFig6a(o, rep, d, median(walls))
}

// setFig6aSim records the simulated headline numbers of a grid.
func setFig6aSim(rep *report, d *exp.Fig6aData) {
	var wi float64
	rows := exp.Fig7(d)
	for _, r := range rows {
		wi += r.WriteIncrease
	}
	var p99 float64
	fi := -1
	for i, s := range d.Systems {
		if s == core.FlexLevel {
			fi = i
		}
	}
	for _, row := range d.Cells {
		if v := row[fi].P99Read; v > p99 {
			p99 = v
		}
	}
	rep.set("sim_resp_reduction_pct", "%", 100*d.MeanReduction(core.FlexLevel, core.LDPCInSSD), len(d.Workloads))
	rep.set("sim_write_increase_pct", "%", 100*wi/float64(len(rows)), len(rows))
	rep.set("sim_lat_p99_us", "us", p99*1e6, len(d.Workloads))
}

// setSummaryLayers records the experiment engine's own numbers, as
// medians over the run's sweeps.
func setSummaryLayers(rep *report, sums []*runner.Summary) {
	var speedup, shardMax, alloc []float64
	for _, s := range sums {
		speedup = append(speedup, s.Speedup)
		shardMax = append(shardMax, s.ShardMaxSec)
		alloc = append(alloc, float64(s.AllocBytes)/(1<<20))
	}
	rep.set("runner.speedup", "x", median(speedup), len(sums))
	rep.set("runner.shard_s_max", "s", median(shardMax), len(sums))
	rep.set("runner.alloc_mb", "MB", median(alloc), len(sums))
}

// fig6aCell is one (trace, system) cell of the traced replay.
type fig6aCell struct {
	wi, si int
}

// replayFig6a replays the grid's 28 cells through the core API the
// sweep uses — trace generation, NewRunner, Prepare, Step per request,
// Finish — timing each call, and checks every cell's metrics against
// the untraced sweep field for field.
func replayFig6a(o runOpts, rep *report, want *exp.Fig6aData, untracedWall float64) error {
	cfg := fig6aConfig(o.seed, nil)
	var cells []fig6aCell
	for wi := range want.Workloads {
		for si := range want.Systems {
			cells = append(cells, fig6aCell{wi, si})
		}
	}
	type cellOut struct {
		m   core.Metrics
		res ssd.Results
		err error
	}
	outs := make([]cellOut, len(cells))
	work := make(chan int)
	workers := cfg.Parallel
	hists := make([]histogram, workers)
	var gen, newRunner, prepare, stepBusy time.Duration
	var mu sync.Mutex

	root := o.tr.begin("fig6a replay", -1, 0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				c := cells[i]
				cell := o.tr.begin(fmt.Sprintf("cell %s/%v", want.Workloads[c.wi], want.Systems[c.si]), root, int64(i))
				opts := core.DefaultOptions(want.Systems[c.si], cfg.PE)
				sp := o.tr.begin("trace.Generate", cell, int64(i))
				tg := time.Now()
				wl, err := trace.ByName(want.Workloads[c.wi], cfg.Requests, opts.SSD.FTL.LogicalPages, cfg.Seed)
				var reqs []trace.Request
				if err == nil {
					reqs, err = wl.Generate()
				}
				dg := time.Since(tg)
				o.tr.end(sp)
				if err != nil {
					outs[i].err = err
					o.tr.end(cell)
					continue
				}
				sp = o.tr.begin("core.NewRunner", cell, int64(i))
				tn := time.Now()
				r, err := core.NewRunner(opts)
				dn := time.Since(tn)
				o.tr.end(sp)
				if err != nil {
					outs[i].err = err
					o.tr.end(cell)
					continue
				}
				sp = o.tr.begin("core.Prepare", cell, int64(i))
				tp := time.Now()
				err = r.Prepare(reqs, wl.WorkingSet)
				dp := time.Since(tp)
				o.tr.end(sp)
				if err != nil {
					outs[i].err = err
					o.tr.end(cell)
					continue
				}
				sp = o.tr.begin("core.Step (per call in histogram core.Step)", cell, int64(i))
				var busy time.Duration
				for _, req := range reqs {
					ts := time.Now()
					err = r.Step(req)
					d := time.Since(ts)
					busy += d
					hists[w].record(d)
					if err != nil {
						break
					}
				}
				o.tr.end(sp)
				if err != nil {
					outs[i].err = err
					o.tr.end(cell)
					continue
				}
				sp = o.tr.begin("core.Finish", cell, int64(i))
				outs[i].m = r.Finish(wl.Name)
				outs[i].res = r.Device().Results()
				o.tr.end(sp)
				o.tr.end(cell)
				mu.Lock()
				gen += dg
				newRunner += dn
				prepare += dp
				stepBusy += busy
				mu.Unlock()
			}
		}(w)
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	tracedWall := time.Since(t0).Seconds()
	o.tr.end(root)

	var step histogram
	for i := range hists {
		step.merge(&hists[i])
	}
	o.tr.merge("core.Step", &step)

	var flex []ssd.Results
	var migrations, evictions int64
	var f ftl.Stats
	for i, c := range cells {
		if outs[i].err != nil {
			rep.fail("replay of %s/%v: %v", want.Workloads[c.wi], want.Systems[c.si], outs[i].err)
			continue
		}
		got, sweep := outs[i].m, want.Cells[c.wi][c.si].Metrics
		if !reflect.DeepEqual(got, sweep) {
			rep.fail("replay of %s/%v differs from exp.Fig6a: %s", want.Workloads[c.wi], want.Systems[c.si], firstDiff(got, sweep))
		}
		if want.Systems[c.si] == core.FlexLevel {
			flex = append(flex, outs[i].res)
			f = f.Add(outs[i].res.FTL)
			migrations += got.Migrations
			evictions += got.Evictions
		}
	}
	rep.set("trace.generate_s", "s", gen.Seconds(), len(cells))
	rep.set("core.new_runner_s", "s", newRunner.Seconds(), len(cells))
	rep.set("core.prepare_s", "s", prepare.Seconds(), len(cells))
	rep.set("core.step_us_p50", "us", step.quantile(50)/1e3, int(step.count))
	rep.set("core.step_us_p99", "us", step.quantile(99)/1e3, int(step.count))
	rep.set("core.step_busy_s", "s", stepBusy.Seconds(), int(step.count))
	setDeviceLayers(rep, flex, migrations, evictions)
	setFTLLayers(rep, f)
	rep.set("bench.trace_overhead_pct", "%", 100*(tracedWall/untracedWall-1), 2)
	return nil
}

// firstDiff names the first field in which two metrics differ.
func firstDiff(a, b core.Metrics) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s: %v vs %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return "no field differs"
}
