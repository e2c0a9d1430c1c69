// Package exp regenerates every table and figure of the FlexLevel paper
// evaluation (§6): Fig. 5 (C2C BER of reduced cells), Table 4 (retention
// BER grid), Table 5 (required extra LDPC sensing levels), Fig. 6(a)
// (normalized response time per workload and system), Fig. 6(b)
// (response-time reduction vs P/E), and Fig. 7 (write count, erase
// count, lifetime). It also hosts the ablation studies DESIGN.md §5
// calls out. Each experiment returns structured data plus a text
// renderer used by cmd/flexlevel and EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"flexlevel/internal/core"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/reducecode"
	"flexlevel/internal/runner"
	"flexlevel/internal/ssd"
	"flexlevel/internal/stats"
	"flexlevel/internal/trace"
)

// addCacheCounters records a run's hot-path lookup activity (the shared
// sensing-level table and the BER surface) as engine counters, so every
// simulation sweep's <name>_summary.json reports aggregate hit/miss/
// reset totals alongside its timing.
func addCacheCounters(s runner.Shard, level, ber ssd.CacheStats) {
	s.AddCounter("level_cache_hits", level.Hits)
	s.AddCounter("level_cache_misses", level.Misses)
	s.AddCounter("level_cache_resets", level.Resets)
	s.AddCounter("ber_cache_hits", ber.Hits)
	s.AddCounter("ber_cache_misses", ber.Misses)
	s.AddCounter("ber_cache_resets", ber.Resets)
}

// addRobustnessCounters records a run's robustness outcomes — the
// unreadable/refresh tallies and the adaptive ladder's activity — as
// engine counters, so every simulation sweep's <name>_summary.json
// reports them alongside its timing (they are zero on a healthy static
// device, which makes any nonzero value in a summary a signal).
func addRobustnessCounters(s runner.Shard, m core.Metrics) {
	s.AddCounter("unreadable", m.Unreadable)
	s.AddCounter("refreshes", m.Refreshes)
	s.AddCounter("refresh_failures", m.RefreshFailures)
	s.AddCounter("recalibrations", m.Recalibrations)
	s.AddCounter("calib_probes", m.CalibProbes)
	s.AddCounter("calib_rescues", m.CalibRescues)
	s.AddCounter("calib_rereads", m.CalibReReads)
	s.AddCounter("escalated_retirements", m.EscalatedRetirements)
}

// PEPoints are the P/E cycle counts of the paper's grids.
var PEPoints = []int{2000, 3000, 4000, 5000, 6000}

// RetentionTimes are the storage-time columns of Tables 4 and 5.
var RetentionTimes = []struct {
	Label string
	Hours float64
}{
	{"1 day", 24},
	{"2 days", 48},
	{"1 week", 168},
	{"1 month", 720},
}

// deviceModels builds the BER models for the baseline MLC and the three
// NUNMA reduced-state configurations.
func deviceModels() (base *noise.BERModel, nunmas []*noise.BERModel, names []string, err error) {
	base, err = noise.NewBERModel(nunma.BaselineMLC(), noise.MLCGray())
	if err != nil {
		return nil, nil, nil, err
	}
	for _, cfg := range nunma.Table3() {
		m, err := noise.NewBERModel(cfg.Spec(), reducecode.Encoding())
		if err != nil {
			return nil, nil, nil, err
		}
		nunmas = append(nunmas, m)
		names = append(names, cfg.Name)
	}
	return base, nunmas, names, nil
}

// ---------------------------------------------------------------- Fig 5

// Fig5Row is one bar group of Fig. 5.
type Fig5Row struct {
	Scheme string
	C2CBER float64
}

// Fig5 computes the interference BER of the baseline MLC cell and the
// three NUNMA reduced-state configurations, one engine shard per scheme.
func Fig5(cfg SimConfig) ([]Fig5Row, error) {
	schemes := append([]string{"Baseline"}, nunmaNames()...)
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("fig5"), schemes,
		func(_ int, scheme string) string { return "scheme=" + scheme },
		func(_ runner.Shard, scheme string) (Fig5Row, error) {
			m, err := schemeModel(scheme)
			if err != nil {
				return Fig5Row{}, err
			}
			return Fig5Row{Scheme: scheme, C2CBER: m.C2CBER()}, nil
		})
	return rows, err
}

// nunmaNames lists the Table 3 configuration names in order.
func nunmaNames() []string {
	var names []string
	for _, cfg := range nunma.Table3() {
		names = append(names, cfg.Name)
	}
	return names
}

// schemeModel builds the BER model for one scheme name ("Baseline" or a
// Table 3 configuration).
func schemeModel(scheme string) (*noise.BERModel, error) {
	if scheme == "Baseline" {
		return noise.NewBERModel(nunma.BaselineMLC(), noise.MLCGray())
	}
	cfg, err := nunma.ByName(scheme)
	if err != nil {
		return nil, err
	}
	return noise.NewBERModel(cfg.Spec(), reducecode.Encoding())
}

// PrintFig5 renders Fig. 5 as text.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Fig. 5 — C2C interference BER of reduced state cells")
	base := rows[0].C2CBER
	for _, r := range rows {
		ratio := 0.0
		if r.C2CBER > 0 {
			ratio = base / r.C2CBER
		}
		fmt.Fprintf(w, "  %-10s %.3e   (baseline/this = %.1fx)\n", r.Scheme, r.C2CBER, ratio)
	}
}

// -------------------------------------------------------------- Table 4

// Table4Cell is one entry of the retention BER grid.
type Table4Cell struct {
	PE     int
	Scheme string
	BER    [4]float64 // one per RetentionTimes column
}

// Table4 computes the retention BER grid: baseline plus NUNMA 1-3 at
// each P/E point and storage time, one engine shard per P/E point.
func Table4(cfg SimConfig) ([]Table4Cell, error) {
	// The models are stateless and identical for every P/E shard; build
	// them once instead of once per grid point.
	base, nunmas, names, err := deviceModels()
	if err != nil {
		return nil, err
	}
	perPE, _, err := runner.Map(cfg.Ctx, cfg.engine("table4"), PEPoints,
		func(_ int, pe int) string { return fmt.Sprintf("pe=%d", pe) },
		func(s runner.Shard, pe int) ([]Table4Cell, error) {
			rows := []Table4Cell{{PE: pe, Scheme: "Baseline"}}
			for ti, t := range RetentionTimes {
				rows[0].BER[ti] = base.RetentionBER(pe, t.Hours)
			}
			for i, m := range nunmas {
				row := Table4Cell{PE: pe, Scheme: names[i]}
				for ti, t := range RetentionTimes {
					row.BER[ti] = m.RetentionBER(pe, t.Hours)
				}
				rows = append(rows, row)
			}
			s.AddOps(int64(len(rows) * len(RetentionTimes)))
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	var out []Table4Cell
	for _, rows := range perPE {
		out = append(out, rows...)
	}
	return out, nil
}

// Table4Reductions returns the mean BER-reduction factor of each NUNMA
// configuration vs baseline over the whole grid (the paper reports
// 2x / 5x / 9x).
func Table4Reductions(cells []Table4Cell) map[string]float64 {
	byScheme := map[string][]float64{}
	var baseVals []float64
	for _, c := range cells {
		for _, b := range c.BER {
			if c.Scheme == "Baseline" {
				baseVals = append(baseVals, b)
			} else {
				byScheme[c.Scheme] = append(byScheme[c.Scheme], b)
			}
		}
	}
	out := map[string]float64{}
	for scheme, vals := range byScheme {
		var ratios []float64
		for i, v := range vals {
			if v > 0 && i < len(baseVals) {
				ratios = append(ratios, baseVals[i]/v)
			}
		}
		out[scheme] = stats.GeoMean(ratios)
	}
	return out
}

// PrintTable4 renders the retention BER grid.
func PrintTable4(w io.Writer, cells []Table4Cell) {
	fmt.Fprintln(w, "Table 4 — retention BER under three NUNMA configurations")
	fmt.Fprintf(w, "  %-6s %-10s", "P/E", "scheme")
	for _, t := range RetentionTimes {
		fmt.Fprintf(w, " %10s", t.Label)
	}
	fmt.Fprintln(w)
	for _, c := range cells {
		fmt.Fprintf(w, "  %-6d %-10s", c.PE, c.Scheme)
		for _, b := range c.BER {
			fmt.Fprintf(w, " %10.3e", b)
		}
		fmt.Fprintln(w)
	}
	// Sort scheme names so the rendering is deterministic (map order
	// would otherwise shuffle the summary lines between runs).
	red := Table4Reductions(cells)
	schemes := make([]string, 0, len(red))
	for scheme := range red {
		schemes = append(schemes, scheme)
	}
	sort.Strings(schemes)
	for _, scheme := range schemes {
		fmt.Fprintf(w, "  mean reduction %s: %.1fx\n", scheme, red[scheme])
	}
}

// -------------------------------------------------------------- Table 5

// Table5Row is one P/E row of the required-sensing-level table.
type Table5Row struct {
	PE     int
	Levels [5]int // 0 day + the four RetentionTimes columns
}

// Table5 computes the extra soft sensing levels the baseline MLC needs
// at each P/E and storage time, per the UBER rule.
func Table5(rule interface {
	RequiredLevels(float64) (int, bool)
}) ([]Table5Row, error) {
	base, _, _, err := deviceModels()
	if err != nil {
		return nil, err
	}
	hours := []float64{0, 24, 48, 168, 720}
	var out []Table5Row
	for _, pe := range PEPoints[1:] { // paper's table starts at 3000
		row := Table5Row{PE: pe}
		for i, h := range hours {
			l, _ := rule.RequiredLevels(base.TotalBER(pe, h))
			row.Levels[i] = l
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintTable5 renders the sensing-level table.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5 — required extra LDPC soft sensing levels (baseline MLC)")
	fmt.Fprintf(w, "  %-6s %7s %7s %7s %7s %7s\n", "P/E", "0 day", "1 day", "2 days", "1 week", "1 month")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6d", r.PE)
		for _, l := range r.Levels {
			fmt.Fprintf(w, " %7d", l)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------- Fig 6 and 7

// SimConfig sizes the storage-system experiments.
type SimConfig struct {
	Requests int
	Seed     int64
	PE       int

	// Parallel caps the experiment engine's worker count; <= 0 uses
	// GOMAXPROCS. Results are byte-identical for every value.
	Parallel int
	// OnSummary, when non-nil, receives the engine summary of every
	// sweep run with this config (one per runner.Map call).
	OnSummary func(*runner.Summary)
	// Ctx, when non-nil, cancels sweeps early (SIGINT in the CLI):
	// undispatched shards stay unrun and the partial summary is still
	// emitted through OnSummary.
	Ctx context.Context
}

// engine builds the runner configuration for a named sweep.
func (c SimConfig) engine(name string) runner.Config {
	return runner.Config{Name: name, Workers: c.Parallel, Seed: c.Seed, OnSummary: c.OnSummary}
}

// DefaultSim returns the evaluation defaults (P/E 6000 as in Fig. 6(a)).
func DefaultSim() SimConfig {
	return SimConfig{Requests: 60000, Seed: 1, PE: 6000}
}

// RunResult is one (workload, system) cell of Fig. 6/7.
type RunResult struct {
	core.Metrics
}

// Fig6aData is the full grid plus normalization helpers.
type Fig6aData struct {
	Workloads []string
	Systems   []core.System
	// Cells[w][s] is the run of workload w under system s.
	Cells [][]RunResult
}

// fig6aCell is one (workload, system) shard of the Fig. 6(a) grid.
type fig6aCell struct {
	Workload string
	System   core.System
}

// Fig6a replays the seven workloads under all four systems, one engine
// shard per (workload, system) cell. Every shard rebuilds its own
// workload and runner from the sweep config, so cells share no state
// and the grid is byte-identical for any worker count.
func Fig6a(cfg SimConfig) (*Fig6aData, error) {
	opts := core.DefaultOptions(core.Baseline, cfg.PE)
	ws := trace.Workloads(cfg.Requests, opts.SSD.FTL.LogicalPages, cfg.Seed)
	data := &Fig6aData{Systems: core.Systems()}
	var cells []fig6aCell
	for _, w := range ws {
		data.Workloads = append(data.Workloads, w.Name)
		for _, sys := range data.Systems {
			cells = append(cells, fig6aCell{Workload: w.Name, System: sys})
		}
	}
	results, _, err := runner.Map(cfg.Ctx, cfg.engine(fmt.Sprintf("fig6a-pe%d", cfg.PE)), cells,
		func(_ int, c fig6aCell) string {
			return fmt.Sprintf("workload=%s/system=%v", c.Workload, c.System)
		},
		func(s runner.Shard, c fig6aCell) (RunResult, error) {
			o := core.DefaultOptions(c.System, cfg.PE)
			w, err := trace.ByName(c.Workload, cfg.Requests, o.SSD.FTL.LogicalPages, cfg.Seed)
			if err != nil {
				return RunResult{}, err
			}
			r, err := core.NewRunner(o)
			if err != nil {
				return RunResult{}, err
			}
			m, err := r.Run(w)
			if err != nil {
				return RunResult{}, fmt.Errorf("exp: %s under %v: %w", c.Workload, c.System, err)
			}
			s.AddOps(int64(cfg.Requests))
			addCacheCounters(s, m.LevelCache, m.BERCache)
			addLatencyGauges(s, m)
			addRobustnessCounters(s, m)
			return RunResult{m}, nil
		})
	if err != nil {
		return nil, err
	}
	for wi := range data.Workloads {
		data.Cells = append(data.Cells, results[wi*len(data.Systems):(wi+1)*len(data.Systems)])
	}
	return data, nil
}

// systemIndex locates sys in the run grid.
func (d *Fig6aData) systemIndex(sys core.System) int {
	for i, s := range d.Systems {
		if s == sys {
			return i
		}
	}
	return -1
}

// Normalized returns each workload's response time under sys divided by
// its response time under ref.
func (d *Fig6aData) Normalized(sys, ref core.System) []float64 {
	si, ri := d.systemIndex(sys), d.systemIndex(ref)
	out := make([]float64, len(d.Cells))
	for w, row := range d.Cells {
		if row[ri].AvgResponse > 0 {
			out[w] = row[si].AvgResponse / row[ri].AvgResponse
		}
	}
	return out
}

// MeanReduction returns the average relative response-time reduction of
// sys vs ref across workloads (the paper's "-66% vs baseline, -33% vs
// LDPC-in-SSD" numbers).
func (d *Fig6aData) MeanReduction(sys, ref core.System) float64 {
	return 1 - stats.Mean(d.Normalized(sys, ref))
}

// PrintFig6a renders the normalized response-time grid.
func PrintFig6a(w io.Writer, d *Fig6aData) {
	fmt.Fprintln(w, "Fig. 6(a) — normalized overall average response time (vs LDPC-in-SSD)")
	fmt.Fprintf(w, "  %-8s", "workload")
	for _, s := range d.Systems {
		fmt.Fprintf(w, " %22s", s)
	}
	fmt.Fprintln(w)
	for wi, name := range d.Workloads {
		fmt.Fprintf(w, "  %-8s", name)
		ref := d.Cells[wi][d.systemIndex(core.LDPCInSSD)].AvgResponse
		for si := range d.Systems {
			v := 0.0
			if ref > 0 {
				v = d.Cells[wi][si].AvgResponse / ref
			}
			fmt.Fprintf(w, " %22.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  mean reduction of %v: %.0f%% vs %v, %.0f%% vs %v\n",
		core.FlexLevel,
		100*d.MeanReduction(core.FlexLevel, core.Baseline), core.Baseline,
		100*d.MeanReduction(core.FlexLevel, core.LDPCInSSD), core.LDPCInSSD)
	loss := 0.0
	for wi := range d.Workloads {
		loss += d.Cells[wi][d.systemIndex(core.FlexLevel)].CapacityLoss
	}
	fmt.Fprintf(w, "  mean FlexLevel capacity loss: %.1f%% (LevelAdjust-only: 25%% of stored data)\n",
		100*loss/float64(len(d.Workloads)))
}

// Fig6bPoint is one P/E point of Fig. 6(b).
type Fig6bPoint struct {
	PE        int
	Reduction float64 // mean response-time reduction of FlexLevel vs LDPC-in-SSD
}

// Fig6b sweeps the P/E cycle count (paper: 4000..6000) and reports the
// mean reduction of FlexLevel vs LDPC-in-SSD.
func Fig6b(cfg SimConfig, pes []int) ([]Fig6bPoint, error) {
	var out []Fig6bPoint
	for _, pe := range pes {
		c := cfg
		c.PE = pe
		data, err := Fig6a(c)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6bPoint{PE: pe, Reduction: data.MeanReduction(core.FlexLevel, core.LDPCInSSD)})
	}
	return out, nil
}

// PrintFig6b renders the sweep.
func PrintFig6b(w io.Writer, pts []Fig6bPoint) {
	fmt.Fprintln(w, "Fig. 6(b) — response-time reduction of FlexLevel vs LDPC-in-SSD by P/E")
	for _, p := range pts {
		fmt.Fprintf(w, "  P/E %-6d %5.0f%%\n", p.PE, 100*p.Reduction)
	}
}

// Fig7Row is one workload of the endurance study.
type Fig7Row struct {
	Workload      string
	WriteIncrease float64 // total programs, FlexLevel vs LDPC-in-SSD
	EraseIncrease float64
	Lifetime      float64 // relative lifetime (Fig. 7(c) model)
}

// EnduranceActivatePE is the P/E point above which FlexLevel activates
// (Table 5: extra sensing levels first appear beyond 4000).
const EnduranceActivatePE = 4000

// EnduranceLimit is the rated endurance used by the lifetime model.
const EnduranceLimit = 6000

// Fig7 derives the endurance metrics from a Fig. 6(a) grid run at P/E
// 6000 (as the paper does).
func Fig7(d *Fig6aData) []Fig7Row {
	li := d.systemIndex(core.LDPCInSSD)
	fi := d.systemIndex(core.FlexLevel)
	var out []Fig7Row
	for wi, name := range d.Workloads {
		ref := d.Cells[wi][li]
		sys := d.Cells[wi][fi]
		row := Fig7Row{Workload: name}
		if ref.TotalPrograms > 0 {
			row.WriteIncrease = float64(sys.TotalPrograms)/float64(ref.TotalPrograms) - 1
		}
		switch {
		case ref.Erases > 0:
			row.EraseIncrease = float64(sys.Erases)/float64(ref.Erases) - 1
		case sys.Erases > 0:
			row.EraseIncrease = 1 // from zero: report +100%
		}
		refWA := ref.WriteAmp
		sysWA := refWA * (1 + row.WriteIncrease)
		row.Lifetime = core.RelativeLifetime(refWA, sysWA, EnduranceActivatePE, EnduranceLimit)
		out = append(out, row)
	}
	return out
}

// PrintFig7 renders the endurance table.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Fig. 7 — endurance impact of LevelAdjust+AccessEval (vs LDPC-in-SSD, P/E 6000)")
	fmt.Fprintf(w, "  %-8s %12s %12s %12s\n", "workload", "write incr", "erase incr", "lifetime")
	var wi, ei, lt []float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %11.1f%% %11.1f%% %11.1f%%\n",
			r.Workload, 100*r.WriteIncrease, 100*r.EraseIncrease, 100*r.Lifetime)
		wi = append(wi, r.WriteIncrease)
		ei = append(ei, r.EraseIncrease)
		lt = append(lt, r.Lifetime)
	}
	fmt.Fprintf(w, "  average: writes +%.0f%%, erases +%.0f%%, lifetime %.1f%% (-%.1f%%)\n",
		100*stats.Mean(wi), 100*stats.Mean(ei), 100*stats.Mean(lt), 100*(1-stats.Mean(lt)))
}
