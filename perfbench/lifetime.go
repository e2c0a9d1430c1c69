package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/ftl"
	"flexlevel/internal/runner"
)

// buildLifetimeDevice builds and preloads one full-scale lifetime
// device the way each cell of the sweep does (the baseline-MLC cell's
// options, without its fault curves).
func buildLifetimeDevice(p exp.LifetimeParams) error {
	opts := core.DefaultOptions(core.LDPCInSSD, exp.DefaultSim().PE)
	opts.AgedReducedPreload = true
	opts.SSD.PackedMeta = true
	opts.SSD.FTL.PagesPerBlock = p.PagesPerBlock
	opts.SSD.FTL.Blocks = p.Blocks
	opts.SSD.FTL.SpareBlocks = p.SpareBlocks
	opts.SSD.FTL.LogicalPages = p.LogicalPages
	r, err := core.NewRunner(opts)
	if err != nil {
		return err
	}
	return r.Device().PreloadState(p.LogicalPages, ftl.NormalState)
}

// setUpsPerRound is how many lifetime devices are built before the
// first sweep and again after each sweep. One build takes about 50 ms,
// short enough for a moment of host slowness to move it by half, so the
// set-ups are spread over the run and setup_s is their median.
const setUpsPerRound = 5

// timeSetUps builds and preloads n lifetime devices one after another
// and appends each one's wall time to setups.
func timeSetUps(o runOpts, p exp.LifetimeParams, n int, setups []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		sp := o.tr.begin("lifetime device build+preload", -1, 0)
		t0 := time.Now()
		if err := buildLifetimeDevice(p); err != nil {
			return setups, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		o.tr.end(sp)
		// Free each set-up device before the next one is built, so the
		// set-up never holds more than one and peak memory stays the
		// sweep's own (two cells at a time).
		runtime.GC()
	}
	return setups, nil
}

// runLifetime times full-scale exp.Lifetime sweeps until the run time
// is spent.
func runLifetime(o runOpts, rep *report) error {
	p := exp.DefaultLifetime()
	setups, err := timeSetUps(o, p, setUpsPerRound, nil)
	if err != nil {
		return err
	}

	cfg := exp.DefaultSim()
	cfg.Seed = o.seed
	cfg.Parallel = runtime.NumCPU()
	sweep := func() ([]exp.LifetimeRow, *runner.Summary, float64, error) {
		var sum *runner.Summary
		c := cfg
		c.OnSummary = func(s *runner.Summary) { sum = s }
		t0 := time.Now()
		rows, err := exp.Lifetime(c, p)
		return rows, sum, time.Since(t0).Seconds(), err
	}

	var (
		walls    []float64
		cells    [][]float64
		sums     []*runner.Summary
		digests  []uint64
		simRates []float64
	)
	perSweep := int64(len(exp.AdaptiveSchemes()) * len(exp.LifetimePolicies()))
	deadline := time.Now().Add(o.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		rows, sum, wall, err := sweep()
		rep.attempted += perSweep
		if err != nil {
			rep.failed += perSweep
			return err
		}
		checkLifetimeRows(rep, rows)
		walls = append(walls, wall)
		sums = append(sums, sum)
		simRates = append(simRates, float64(sum.Ops)/wall)
		var sweepCells []float64
		for _, s := range sum.PerShard {
			sweepCells = append(sweepCells, s.Seconds*1e6)
		}
		cells = append(cells, sweepCells)
		dg, err := digestRows(rows)
		if err != nil {
			return err
		}
		digests = append(digests, dg)
		if setups, err = timeSetUps(o, p, setUpsPerRound, setups); err != nil {
			return err
		}
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	for i := 1; i < len(digests); i++ {
		rep.check(digests[i] == digests[0], "sweep %d rows differ from sweep 1 for the same seed", i+1)
	}
	fmt.Printf("lifetime rows digest (FNV-64a of the CSV): %016x\n", digests[0])

	rep.set("wall_s", "s", median(walls), len(walls))
	rep.set("ops_per_s", "1/s", median(simRates), len(simRates))
	rep.setSweepLatency("lat_p50_us", "lat_p99_us", "us", cells)
	rep.set("ok_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted), int(rep.attempted))
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.set("bench.fail_ratio", "ratio", 0, int(rep.attempted))

	if o.tr == nil {
		return nil
	}
	setSummaryLayers(rep, sums)
	last := sums[len(sums)-1]
	rep.set("ftl.meta_bytes", "B", last.Gauges["meta_bytes"], 1)
	rep.set("exp.lifetime_heap_mb", "MB", last.Gauges["heap_alloc_bytes"]/(1<<20), 1)
	var rates []float64
	for _, s := range sums {
		rates = append(rates, s.OpsPerSec)
	}
	rep.set("exp.lifetime_sim_ops_per_s", "1/s", median(rates), len(rates))

	// The traced sweep: the same call inside a span.
	sp := o.tr.begin("exp.Lifetime", -1, 0)
	rows, _, wall, err := sweep()
	o.tr.end(sp)
	if err != nil {
		return err
	}
	if dg, err := digestRows(rows); err != nil || dg != digests[0] {
		rep.fail("traced sweep rows differ from the untraced sweep (err %v)", err)
	}
	rep.set("bench.trace_overhead_pct", "%", 100*(wall/median(walls)-1), 2)
	return nil
}

// checkLifetimeRows checks each cell's trajectory: TBW and programs
// never decrease from epoch to epoch, and read-only never turns off.
func checkLifetimeRows(rep *report, rows []exp.LifetimeRow) {
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev.Scheme != cur.Scheme || prev.Policy != cur.Policy {
			continue
		}
		cell := cur.Scheme + "/" + cur.Policy
		rep.check(cur.TBWBytes >= prev.TBWBytes, "%s epoch %d: TBW fell from %d to %d", cell, cur.Epoch, prev.TBWBytes, cur.TBWBytes)
		rep.check(cur.TotalPrograms >= prev.TotalPrograms, "%s epoch %d: programs fell from %d to %d", cell, cur.Epoch, prev.TotalPrograms, cur.TotalPrograms)
		rep.check(!prev.Degraded || cur.Degraded, "%s epoch %d: left read-only mode", cell, cur.Epoch)
	}
}

// digestRows hashes the sweep's CSV so runs can be compared.
func digestRows(rows []exp.LifetimeRow) (uint64, error) {
	var b bytes.Buffer
	if err := exp.WriteLifetimeCSV(&b, rows); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	return h.Sum64(), nil
}
