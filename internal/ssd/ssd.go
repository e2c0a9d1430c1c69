// Package ssd is the SSD timing simulator of the FlexLevel evaluation
// (the paper modified FlashSim [20]; this is an equivalent event-driven
// simulator built from scratch): a page-mapping FTL, a write-back write
// buffer, a single flash channel with FIFO service, Table 6 operation
// latencies, and a per-read soft-sensing cost derived from the device
// noise models via the sensing-level rule.
package ssd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/calib"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/sensing"
	"flexlevel/internal/stats"
)

// BERFunc returns the raw bit error rate of a page in a block of the
// given state, at the block's P/E wear, after ageHours of storage.
type BERFunc func(state ftl.BlockState, pe int, ageHours float64) float64

// ShiftedBERFunc is BERFunc with the read references moved by shiftMv
// millivolts — the drift-aware evaluation the calibration tracker
// probes. At shiftMv 0 it must agree with the device's BERFunc exactly.
type ShiftedBERFunc func(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64

// Config parameterizes a Device.
type Config struct {
	FTL    ftl.Config
	Timing sensing.Timing
	Rule   sensing.LevelRule

	// Write-back buffer: writes complete at BufferLatency as long as the
	// flash backlog stays within BufferPages' worth of program time.
	BufferPages   int
	BufferLatency time.Duration

	// MaxDataAgeHours is the upper bound of the uniform retention age
	// assigned to preloaded data (the paper evaluates at up to 1 month).
	MaxDataAgeHours float64

	// Channels is the number of independent flash channels; physical
	// blocks stripe across them (block % Channels). 0 or 1 models the
	// single-channel device the calibrated experiments use.
	Channels int

	// AutoRefresh rewrites a page in place when its BER exceeds even the
	// maximum soft-sensing capability (retention relaxation: the read
	// succeeds only after the refresh). Off by default — the paper's
	// evaluation does not model refresh.
	AutoRefresh bool

	// RefreshAboveLevels, when positive, rewrites any page whose read
	// needed at least that many extra sensing levels (aggressive
	// scrubbing — the retention-relaxation related work [10] that trades
	// write traffic for read latency). 0 disables.
	RefreshAboveLevels int

	// WearLevelEvery, when positive, runs one static wear-leveling round
	// after every N user writes.
	WearLevelEvery int

	// Faults configures the deterministic fault injector (program/erase
	// failures, grown bad blocks, transient uncorrectable reads). The
	// zero value disables injection entirely and leaves every result
	// bit-identical to a fault-free device.
	Faults fault.Config

	// MaxReadRetries bounds how many escalating re-reads a transient
	// read fault may trigger before the page is declared lost. 0 selects
	// DefaultReadRetries.
	MaxReadRetries int

	// Calib configures online per-block read-threshold calibration (the
	// adaptive read-retry ladder, DESIGN.md §13). Disabled by default;
	// when enabled the caller must also register a ShiftedBERFunc via
	// SetShiftedBER or calibration probes see a flat landscape and the
	// shift never moves.
	Calib calib.Config

	// SampleCap, when positive, bounds the read response-time sample to
	// that many kept observations via a seeded uniform reservoir, so a
	// long-running device (the serve daemon) holds constant memory while
	// percentiles stay unbiased estimates. 0 keeps every observation —
	// the legacy exact-percentile behaviour every golden artifact pins.
	SampleCap int

	// PackedMeta packs the per-page retention-age tracking into one
	// int32 birth second per physical page (4 B) instead of the exact
	// float64 age offset + Duration program time (16 B). Age resolution
	// drops to one second, so a read landing exactly on a sub-second
	// retention boundary may resolve one sensing level differently; off
	// by default because every golden artifact pins the exact layout.
	// The full-device lifetime sweep (DESIGN.md §16) turns it on: its
	// epochs advance in hours, where second quantization is invisible.
	PackedMeta bool

	Seed int64
}

// DefaultReadRetries is the transient-read-retry bound when
// Config.MaxReadRetries is zero.
const DefaultReadRetries = 3

// DefaultConfig returns the scaled paper evaluation system.
func DefaultConfig() Config {
	return Config{
		FTL:             ftl.DefaultConfig(),
		Timing:          sensing.DefaultTiming(),
		Rule:            sensing.DefaultRule(),
		BufferPages:     64,
		BufferLatency:   5 * time.Microsecond,
		MaxDataAgeHours: 720,
		Seed:            1,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if err := c.FTL.Validate(); err != nil {
		return err
	}
	if err := c.Rule.Validate(); err != nil {
		return err
	}
	if c.BufferPages < 0 {
		return fmt.Errorf("ssd: negative buffer pages")
	}
	if c.BufferLatency < 0 {
		return fmt.Errorf("ssd: negative buffer latency")
	}
	if c.MaxDataAgeHours < 0 {
		return fmt.Errorf("ssd: negative max data age")
	}
	if c.Channels < 0 {
		return fmt.Errorf("ssd: negative channel count")
	}
	if c.WearLevelEvery < 0 {
		return fmt.Errorf("ssd: negative wear-level interval")
	}
	if c.RefreshAboveLevels < 0 {
		return fmt.Errorf("ssd: negative refresh threshold")
	}
	if c.MaxReadRetries < 0 {
		return fmt.Errorf("ssd: negative read-retry bound")
	}
	if err := c.Calib.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// readRetries returns the effective transient-read-retry bound.
func (c Config) readRetries() int {
	if c.MaxReadRetries > 0 {
		return c.MaxReadRetries
	}
	return DefaultReadRetries
}

// channels normalizes the configured channel count.
func (c Config) channels() int {
	if c.Channels < 1 {
		return 1
	}
	return c.Channels
}

// CacheStats counts the activity of one hot-path lookup layer. Hits and
// misses are per consultation; Resets counts cap-overflow compactions.
// For the sensing-level table (Results.LevelCache) a hit is a lookup the
// precomputed thresholds answered, a miss one that fell inside a
// threshold bracket and ran the rule's uber.MeetsTarget predicate, and
// Resets stays 0: the table is immutable.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Resets int64 `json:"resets"`
}

// Sub returns c minus base (for measurement-window snapshots).
func (c CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		Hits:   c.Hits - base.Hits,
		Misses: c.Misses - base.Misses,
		Resets: c.Resets - base.Resets,
	}
}

// Results holds the simulator's outputs.
type Results struct {
	ReadResp    stats.Accumulator
	WriteResp   stats.Accumulator
	OverallResp stats.Accumulator

	// ReadSample keeps every read response time for percentile queries.
	ReadSample *stats.Sample

	Reads           int64
	Writes          int64
	SensingAttempts int64 // total sensing passes across all attempts
	LevelHist       [sensing.MaxExtraLevels + 1]int64

	// Unreadable counts reads whose BER exceeded even the maximum soft
	// sensing capability; Refreshes counts the in-place rewrites
	// AutoRefresh performed for them. RefreshFailures counts rewrites
	// the FTL refused (degraded pool, no room) — previously dropped
	// silently, now the trigger of the ladder's retirement stage.
	Unreadable      int64
	Refreshes       int64
	RefreshFailures int64

	// Adaptive read-retry ladder (DESIGN.md §13). Recalibrations counts
	// background read-threshold retunes; CalibProbes the re-sense probes
	// they issued (charged via Timing.CalibrationLatency, counted apart
	// from SensingAttempts); CalibRescues the reads that were unreadable
	// at the stale shift and decoded after retuning; CalibReReads the
	// served re-senses at a freshly improved calibration.
	// EscalatedRetirements counts blocks the ladder retired after both
	// recalibration and refresh failed to make them readable.
	Recalibrations       int64
	CalibProbes          int64
	CalibRescues         int64
	CalibReReads         int64
	EscalatedRetirements int64

	// Fault handling and graceful degradation. Writes counts accepted
	// user writes; WritesRejected the writes refused in degraded mode
	// (spare pool exhausted) and WriteFailures the writes dropped after
	// exhausting program retries. TransientReadFaults counts injected
	// read faults, ReadRetries the escalating re-reads they triggered,
	// and DataLoss the pages declared unrecoverable after the retry
	// bound.
	WritesRejected      int64
	WriteFailures       int64
	TransientReadFaults int64
	ReadRetries         int64
	DataLoss            int64

	// Faults is a snapshot of the injector's activity counters.
	Faults fault.Stats

	// Crash consistency. Crashes counts power losses; InFlightLost the
	// user writes cut off mid-flight (never acknowledged, so losing them
	// honours the ack contract). RecoveryReads / RecoveryRecords /
	// RecoveryTornPages itemize the recovery work: metadata and OOB
	// reads performed, journal records replayed, and power-interrupted
	// pages detected and discarded. RecoveryTime is the cumulative
	// device unavailability spent recovering.
	Crashes           int64
	InFlightLost      int64
	RecoveryReads     int64
	RecoveryRecords   int64
	RecoveryTornPages int64
	RecoveryTime      time.Duration

	// MetaBytes is the resident size of the FTL's mapping/block tables
	// plus the device's retention-age tracking at snapshot time
	// (DESIGN.md §16). A geometry property, not a workload counter:
	// ResetMeasurement does not zero it.
	MetaBytes int64

	// Lookup observability (DESIGN.md §11): the shared sensing-level
	// table (see CacheStats for what its hits and misses mean) and the
	// BER surface backing the device's BERFunc, when the caller
	// registered one via SetBERCacheStats. Counters cover the current
	// measurement window.
	LevelCache CacheStats
	BERCache   CacheStats

	FTL ftl.Stats
}

// ReadPercentiles returns the p50/p95/p99 of recorded read response
// times, in seconds. All zero when no reads were sampled.
func (r Results) ReadPercentiles() (p50, p95, p99 float64) {
	if r.ReadSample == nil || r.ReadSample.N() == 0 {
		return 0, 0, 0
	}
	return r.ReadSample.Percentile(50), r.ReadSample.Percentile(95), r.ReadSample.Percentile(99)
}

// Device is the simulated SSD.
type Device struct {
	cfg    Config
	ftl    *ftl.FTL
	berOf  BERFunc
	policy baseline.ReadPolicy

	// Per physical page: the retention-age offset (pre-aging) and the
	// simulation time of the last program. With Config.PackedMeta both
	// collapse into birth — the program instant in whole sim seconds
	// (negative for preloaded pre-aged data) — and stay nil.
	ageOffset []float64
	progTime  []time.Duration
	birth     []int32

	// chanFree is, per flash channel, the time its FIFO frees: new work
	// on the channel starts service no earlier.
	chanFree []time.Duration

	// levels is the process-wide inverted sensing-level table for
	// Config.Rule (sensing.TableFor), shared read-only with every other
	// device built under the same rule.
	levels *sensing.LevelTable

	res       Results
	rng       *rand.Rand
	inj       *fault.Injector // nil when fault injection is disabled
	faultBase fault.Stats     // injector counters at the last measurement reset

	// crashed is set on power loss and cleared by a successful Restart;
	// ftlPrior carries the dead FTL's counters across the swap.
	crashed  bool
	ftlPrior ftl.Stats

	// attemptsBuf is the reusable scratch the read path hands to
	// baseline.AttemptAppender policies, so steady-state reads allocate
	// nothing. appender is the policy's appender view, resolved once.
	attemptsBuf []int
	appender    baseline.AttemptAppender

	// berStats, when registered, snapshots the counters of the cache
	// behind berOf (e.g. core's BER surface); berBase is its value at the
	// last measurement reset.
	berStats func() CacheStats
	berBase  CacheStats

	// Adaptive ladder state: the per-block threshold calibration tracker
	// (nil unless Config.Calib.Enabled) and the shifted-BER evaluation
	// its probes use. lower is the policy's downward-memory hook,
	// resolved once like appender.
	calib      *calib.Tracker
	shiftedBER ShiftedBERFunc
	lower      interface{ Lower(int, int) }
}

// channelOf maps a physical block to its flash channel.
func (d *Device) channelOf(block int) int { return block % len(d.chanFree) }

// charge occupies channel ch FIFO-style: service begins when the
// channel frees (or at now when idle) and the channel stays busy until
// it ends; the completion time is returned.
func (d *Device) charge(ch int, now, service time.Duration) time.Duration {
	start := now
	if d.chanFree[ch] > start {
		start = d.chanFree[ch]
	}
	d.chanFree[ch] = start + service
	return d.chanFree[ch]
}

// newReadSample builds the read response-time sample the config asks
// for: exact and unbounded by default, a seeded reservoir when
// SampleCap bounds memory for long-running serving. The reservoir's
// replacement stream is independent of the device rng, so enabling a
// cap never perturbs fault or wear draws.
func (d *Device) newReadSample() *stats.Sample {
	if d.cfg.SampleCap > 0 {
		return stats.NewReservoir(d.cfg.SampleCap, d.cfg.Seed^0x5eed5a3d1e)
	}
	return stats.NewSample(0)
}

// New builds a Device. berOf supplies the device-physics BER; policy the
// read-retry behaviour.
func New(cfg Config, berOf BERFunc, policy baseline.ReadPolicy) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if berOf == nil || policy == nil {
		return nil, fmt.Errorf("ssd: nil BER function or policy")
	}
	f, err := ftl.New(cfg.FTL)
	if err != nil {
		return nil, err
	}
	phys := cfg.FTL.PagesPerBlock * cfg.FTL.Blocks
	d := &Device{
		cfg:    cfg,
		ftl:    f,
		berOf:  berOf,
		policy: policy,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.PackedMeta {
		d.birth = make([]int32, phys)
	} else {
		d.ageOffset = make([]float64, phys)
		d.progTime = make([]time.Duration, phys)
	}
	d.attemptsBuf = make([]int, 0, sensing.MaxExtraLevels+2)
	if ap, ok := policy.(baseline.AttemptAppender); ok {
		d.appender = ap
	}
	if lp, ok := policy.(interface{ Lower(int, int) }); ok {
		d.lower = lp
	}
	if cfg.Calib.Enabled {
		tr, err := calib.New(cfg.Calib)
		if err != nil {
			return nil, err
		}
		d.calib = tr
	}
	if cfg.Faults.Enabled() {
		inj, err := fault.New(cfg.Faults)
		if err != nil {
			return nil, err
		}
		d.inj = inj
		// Program/erase/grown-bad faults are injected at the FTL, which
		// owns retirement and remapping; read faults are injected here.
		f.Fault = inj.Fails
	}
	if d.levels, err = sensing.TableFor(cfg.Rule); err != nil {
		return nil, err
	}
	d.chanFree = make([]time.Duration, cfg.channels())
	d.res.ReadSample = d.newReadSample()
	f.OnRelocate = func(lpn uint64, oldPPN, newPPN int64) {
		// A GC copy reprograms the data: retention age restarts.
		d.resetAge(newPPN, d.Now())
	}
	d.wireOnErase(f)
	return d, nil
}

// wireOnErase points the FTL's erase hook at whatever per-block state
// must reset with the block: the policy's retry memory and the
// calibration tracker's shift. With neither present the hook stays nil
// (bit-identical to the pre-calibration wiring).
func (d *Device) wireOnErase(f *ftl.FTL) {
	forgetter, hasForget := d.policy.(interface{ Forget(int) })
	switch {
	case hasForget && d.calib != nil:
		f.OnErase = func(b int) {
			forgetter.Forget(b)
			d.calib.Forget(b)
		}
	case hasForget:
		f.OnErase = forgetter.Forget
	case d.calib != nil:
		f.OnErase = d.calib.Forget
	}
}

// SetShiftedBER registers the drift-aware BER evaluation calibration
// probes use. Without it an enabled tracker sees a flat landscape and
// never moves any shift.
func (d *Device) SetShiftedBER(fn ShiftedBERFunc) { d.shiftedBER = fn }

// Calib exposes the calibration tracker (nil when disabled).
func (d *Device) Calib() *calib.Tracker { return d.calib }

// FTL exposes the underlying mapping layer (read-only use intended).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Preload writes the first pages logical pages once (sequentially, into
// the normal pool), assigns each a random retention age in
// [0, MaxDataAgeHours], and resets the statistics so experiments measure
// only the workload. Real traces touch a fraction of the SSD; preloading
// just the footprint keeps the spare-space dynamics faithful.
func (d *Device) Preload(pages uint64) error {
	return d.PreloadState(pages, ftl.NormalState)
}

// PreloadState is Preload into an arbitrary pool: experiments whose
// working set lives entirely in the reduced (LevelAdjust) pool use it
// to precondition with realistic retention ages, which the legacy
// zero-age write loop those experiments used before cannot model.
func (d *Device) PreloadState(pages uint64, state ftl.BlockState) error {
	if pages > d.cfg.FTL.LogicalPages {
		return fmt.Errorf("ssd: preload of %d pages exceeds logical space %d",
			pages, d.cfg.FTL.LogicalPages)
	}
	for lpn := uint64(0); lpn < pages; lpn++ {
		ppn, _, err := d.ftl.Write(lpn, state)
		if err != nil {
			return fmt.Errorf("ssd: preload: %w", err)
		}
		d.preAge(ppn, d.rng.Float64()*d.cfg.MaxDataAgeHours)
	}
	d.ResetMeasurement()
	return nil
}

// ResetMeasurement zeroes the clock, the response-time accumulators and
// the FTL counters. Callers that precondition the device through the
// regular Write path (instead of Preload) use it to start a clean
// measured phase.
func (d *Device) ResetMeasurement() {
	clear(d.chanFree)
	d.res = Results{ReadSample: d.newReadSample()}
	d.faultBase = d.inj.Stats()
	if d.berStats != nil {
		d.berBase = d.berStats()
	}
	d.ftlPrior = ftl.Stats{}
	d.ftl.ResetStats()
}

// SetBERCacheStats registers a counter snapshot function for the cache
// behind the device's BERFunc, so Results can report BER-cache activity
// for the measurement window alongside the level table's.
func (d *Device) SetBERCacheStats(fn func() CacheStats) {
	d.berStats = fn
	if fn != nil {
		d.berBase = fn()
	}
}

// resetAge records a fresh program of ppn at sim time now: its
// retention age restarts from zero.
func (d *Device) resetAge(ppn int64, now time.Duration) {
	if d.birth != nil {
		d.birth[ppn] = int32(now / time.Second)
		return
	}
	d.ageOffset[ppn] = 0
	d.progTime[ppn] = now
}

// preAge assigns ppn a pre-existing retention age (preload), with the
// program anchored at sim time zero.
func (d *Device) preAge(ppn int64, hours float64) {
	if d.birth != nil {
		d.birth[ppn] = -int32(math.Round(hours * 3600))
		return
	}
	d.ageOffset[ppn] = hours
	d.progTime[ppn] = 0
}

// ageHours returns the retention age of a physical page at sim time now.
func (d *Device) ageHours(ppn int64, now time.Duration) float64 {
	if d.birth != nil {
		sec := int64(now/time.Second) - int64(d.birth[ppn])
		if sec < 0 {
			sec = 0
		}
		return float64(sec) / 3600
	}
	elapsed := now - d.progTime[ppn]
	if elapsed < 0 {
		elapsed = 0
	}
	return d.ageOffset[ppn] + elapsed.Hours()
}

// RequiredLevels computes the soft sensing levels a read of lpn needs
// right now, from the device physics.
func (d *Device) RequiredLevels(lpn uint64, now time.Duration) int {
	levels, _ := d.requiredLevels(lpn, now)
	return levels
}

// Patrol evaluates lpn's current read health without serving a read:
// the sensing levels a read would need right now, and whether the page
// is readable at all within the maximum sensing capability. Unmapped
// pages report (0, true). It charges no flash time and records no
// response sample — the lifetime sweep's scrub/refresh policies use it
// as the media scan behind their refresh decisions.
func (d *Device) Patrol(lpn uint64, now time.Duration) (levels int, readable bool) {
	return d.requiredLevels(lpn, now)
}

// requiredLevels also reports whether the page is readable at all
// within the device's maximum sensing capability.
func (d *Device) requiredLevels(lpn uint64, now time.Duration) (int, bool) {
	ppn, state, ok := d.ftl.Lookup(lpn)
	if !ok {
		return 0, true
	}
	return d.requiredLevelsAt(ppn, state, now)
}

// requiredLevelsAt is requiredLevels for an already-resolved mapping, so
// the read path pays one FTL lookup instead of two. With calibration
// enabled the page is evaluated at its block's current reference shift.
func (d *Device) requiredLevelsAt(ppn int64, state ftl.BlockState, now time.Duration) (int, bool) {
	block := int(ppn) / d.cfg.FTL.PagesPerBlock
	pe := d.ftl.BlockPE(block)
	return d.levelsForBER(d.pageBER(state, pe, d.ageHours(ppn, now), block))
}

// pageBER evaluates a page's raw BER at its block's calibration. The
// zero-shift fast path goes through the unshifted BERFunc so a device
// with calibration at its starting point stays bit-identical to one
// without.
func (d *Device) pageBER(state ftl.BlockState, pe int, age float64, block int) float64 {
	if d.calib != nil && d.shiftedBER != nil {
		if s := d.calib.ShiftMv(block); s != 0 {
			return d.shiftedBER(state, pe, age, s)
		}
	}
	return d.berOf(state, pe, age)
}

// levelsForBER answers the sensing-level rule for a raw BER through the
// level table. It is the common back end of the read path and of
// calibration probes (which feed it shifted BERs).
func (d *Device) levelsForBER(ber float64) (int, bool) {
	levels, achievable, probed := d.levels.Lookup(ber)
	if probed {
		d.res.LevelCache.Misses++
	} else {
		d.res.LevelCache.Hits++
	}
	return levels, achievable
}

// Read simulates a one-page read arriving at time now. It returns the
// response time and the sensing level that finally succeeded.
//
// With calibration enabled (Config.Calib) the read runs the adaptive
// ladder: sense at the block's calibrated references, and when the
// decode outcome warrants it (unreadable, or drifted past the last
// calibration) recalibrate the block's read thresholds, re-serve the
// read at the retuned references, and — if the block still cannot
// decode — escalate through in-place refresh to block retirement. The
// FTL's degraded read-only mode is the ladder's terminal state.
func (d *Device) Read(now time.Duration, lpn uint64) (time.Duration, int) {
	if d.crashed {
		return 0, 0 // powered off: no service until Restart
	}
	required := 0
	achievable := true
	block := 0
	var ppn int64
	var state ftl.BlockState
	mapped := false
	if p, st, ok := d.ftl.Lookup(lpn); ok {
		required, achievable = d.requiredLevelsAt(p, st, now)
		block = int(p) / d.cfg.FTL.PagesPerBlock
		ppn = p
		state = st
		mapped = true
	}
	var attempts []int
	if d.appender != nil {
		// Zero-alloc path: the policy appends into the device's scratch
		// buffer instead of allocating a fresh slice per read.
		attempts = d.appender.AppendAttempts(d.attemptsBuf[:0], block, required)
	} else {
		attempts = d.policy.Attempts(block, required)
	}
	if len(attempts) == 0 {
		// Defensive fallback for a broken policy: a single hard-decision
		// attempt instead of an index panic below.
		attempts = append(attempts, 0)
	}
	if d.inj != nil && mapped {
		// Transient uncorrectable reads: the decode fails despite the
		// sensed levels, and the controller escalates — re-read at one
		// more sensing level per retry, charged like any other attempt.
		// A page still failing at the retry bound is declared lost.
		pe := d.ftl.BlockPE(block)
		retries := 0
		for d.inj.Fails(fault.Read, block, pe) {
			d.res.TransientReadFaults++
			if retries >= d.cfg.readRetries() {
				d.res.DataLoss++
				break
			}
			retries++
			level := required + retries
			if level > sensing.MaxExtraLevels {
				level = sensing.MaxExtraLevels
			}
			attempts = append(attempts, level)
		}
		d.res.ReadRetries += int64(retries)
	}
	var service time.Duration
	for _, l := range attempts {
		service += d.cfg.Timing.ReadLatency(l)
	}
	senses := int64(len(attempts))
	final := attempts[len(attempts)-1]
	if final > sensing.MaxExtraLevels {
		final = sensing.MaxExtraLevels
	}

	// Ladder stage 2 — recalibrate: when the decode outcome says the
	// block's thresholds are stale, retune them from decoder feedback
	// and, if that lowered (or restored) the requirement, serve the read
	// with one final re-sense at the fresh calibration.
	if d.calib != nil && d.shiftedBER != nil && mapped &&
		d.calib.Observe(block, required, achievable) {
		pe := d.ftl.BlockPE(block)
		age := d.ageHours(ppn, now)
		probes, lev, ok := d.calib.Calibrate(block, func(shiftMv int) (int, bool) {
			return d.levelsForBER(d.shiftedBER(state, pe, age, shiftMv))
		})
		d.res.Recalibrations++
		d.res.CalibProbes += int64(probes)
		service += d.cfg.Timing.CalibrationLatency(probes)
		if ok && (!achievable || lev < required) {
			service += d.cfg.Timing.ReadLatency(lev)
			senses++
			d.res.CalibReReads++
			if !achievable {
				d.res.CalibRescues++
			}
			required, achievable = lev, ok
			final = lev
			if d.lower != nil {
				d.lower.Lower(block, lev)
			}
		}
	}

	ch := d.channelOf(block)
	resp := d.charge(ch, now, service) - now

	d.res.Reads++
	d.res.SensingAttempts += senses
	d.res.LevelHist[final]++
	d.res.ReadResp.Add(resp.Seconds())
	d.res.ReadSample.Add(resp.Seconds())
	d.res.OverallResp.Add(resp.Seconds())

	if !achievable && mapped {
		d.res.Unreadable++
		if d.cfg.AutoRefresh {
			// Ladder stage 3 — refresh: rewrite the page in place so its
			// age (and BER) restart. Charged as background work. A failed
			// rewrite escalates to stage 4, block retirement, instead of
			// being dropped silently: data on a block that can neither
			// decode nor rewrite must move before it decays further.
			if err := d.Migrate(now, lpn, state); err == nil {
				d.res.Refreshes++
			} else if !errors.Is(err, ftl.ErrPowerLoss) {
				d.res.RefreshFailures++
				d.escalateRetire(now, block)
			}
		}
	} else if mapped && d.cfg.RefreshAboveLevels > 0 && required >= d.cfg.RefreshAboveLevels {
		// Aggressive scrubbing: any soft-sensed page is rewritten so
		// its next read is a hard-decision read. A refused scrub is not
		// an emergency (the page still decodes) but is no longer silent.
		if err := d.Migrate(now, lpn, state); err == nil {
			d.res.Refreshes++
		} else if !errors.Is(err, ftl.ErrPowerLoss) {
			d.res.RefreshFailures++
		}
	}
	if d.appender != nil {
		// Keep whatever capacity the retry path grew for the next read.
		d.attemptsBuf = attempts[:0]
	}
	return resp, final
}

// escalateRetire is the ladder's stage 4: take the block out of service
// through the FTL's retirement path (valid pages relocate, a spare
// backfills) and charge the relocation work. In degraded mode the FTL
// refuses new programs, so retirement cannot relocate — the device
// stays in stage 5, degraded read-only, and the data remains readable
// where it is.
func (d *Device) escalateRetire(now time.Duration, block int) {
	if d.ftl.Degraded() || d.ftl.BadBlock(block) {
		return
	}
	ops, err := d.ftl.RetireBlock(block)
	d.charge(d.channelOf(block), now, d.opsTime(ops))
	if err == nil {
		d.res.EscalatedRetirements++
		return
	}
	if errors.Is(err, ftl.ErrPowerLoss) {
		d.Crash()
	}
}

// opsTime converts FTL operation counts into flash busy time.
func (d *Device) opsTime(ops ftl.OpCount) time.Duration {
	t := time.Duration(ops.Programs+ops.MetaPrograms) * d.cfg.Timing.Program
	t += time.Duration(ops.CopyReads) * d.cfg.Timing.Read
	t += time.Duration(ops.Erases) * d.cfg.Timing.Erase
	return t
}

// Write simulates a one-page write arriving at now, directed at the
// given pool. Write-back semantics: the request completes at buffer
// latency unless the flash backlog exceeds the buffer's capacity.
func (d *Device) Write(now time.Duration, lpn uint64, state ftl.BlockState) (time.Duration, error) {
	if d.crashed {
		return 0, ftl.ErrPowerLoss
	}
	ppn, ops, err := d.ftl.Write(lpn, state)
	if err != nil {
		switch {
		case errors.Is(err, ftl.ErrPowerLoss):
			// Power died before the write was acknowledged: the request
			// is legitimately lost (in-flight, never acked) and the
			// device is down until Restart.
			d.res.InFlightLost++
			d.Crash()
			return 0, err
		case errors.Is(err, ftl.ErrDegraded):
			// Degraded mode: the write is refused at buffer latency, the
			// previously stored data stays intact and readable.
			d.res.WritesRejected++
			resp := d.cfg.BufferLatency
			d.res.WriteResp.Add(resp.Seconds())
			d.res.OverallResp.Add(resp.Seconds())
			return resp, nil
		case errors.Is(err, ftl.ErrWriteFailed):
			// Program retries exhausted: the write is dropped (its old
			// mapping survives), but the failed attempts and relocations
			// still occupied the flash. The cost goes to the channel
			// owning the block that finally failed (the FTL attributes
			// it via ftl.BlockError); only an unattributed failure falls
			// back to channel 0.
			d.res.WriteFailures++
			ch := 0
			if b, ok := ftl.FailedBlock(err); ok {
				ch = d.channelOf(b)
			}
			d.charge(ch, now, d.opsTime(ops))
			resp := d.cfg.BufferLatency
			d.res.WriteResp.Add(resp.Seconds())
			d.res.OverallResp.Add(resp.Seconds())
			return resp, nil
		}
		return 0, err
	}
	d.resetAge(ppn, now)

	ch := d.channelOf(int(ppn) / d.cfg.FTL.PagesPerBlock)
	d.charge(ch, now, d.opsTime(ops))

	backlog := d.chanFree[ch] - now
	allowance := time.Duration(d.cfg.BufferPages) * d.cfg.Timing.Program
	resp := d.cfg.BufferLatency
	if backlog > allowance {
		resp += backlog - allowance
	}
	d.res.Writes++
	d.res.WriteResp.Add(resp.Seconds())
	d.res.OverallResp.Add(resp.Seconds())

	if d.cfg.WearLevelEvery > 0 && d.res.Writes%int64(d.cfg.WearLevelEvery) == 0 {
		// Static wear leveling rides along as background work.
		const spreadThreshold = 64
		if wlOps, did := d.ftl.LevelWear(spreadThreshold); did {
			d.charge(ch, now, d.opsTime(wlOps))
		}
	}
	return resp, nil
}

// Migrate rewrites lpn into the given pool in the background (AccessEval
// data conversion): it charges flash busy time but produces no user-
// visible response-time sample.
func (d *Device) Migrate(now time.Duration, lpn uint64, state ftl.BlockState) error {
	if d.crashed {
		return ftl.ErrPowerLoss
	}
	ppn, ops, err := d.ftl.Migrate(lpn, state)
	if err != nil {
		if errors.Is(err, ftl.ErrPowerLoss) {
			// Background rewrite cut off: no user data is lost (a torn
			// migration keeps the old mapping), but the device is down.
			d.Crash()
		}
		return err
	}
	d.resetAge(ppn, now)
	ch := d.channelOf(int(ppn) / d.cfg.FTL.PagesPerBlock)
	d.charge(ch, now, d.opsTime(ops))
	return nil
}

// Crashed reports whether the device is down after a power loss and
// waiting for Restart.
func (d *Device) Crashed() bool { return d.crashed }

// Crash records a sudden power loss: everything volatile — the write
// buffer, the channel queues, the policy's read-retry memory, the
// calibration shifts — is gone, and the device refuses service until Restart.
// The FTL's durable media image (OOB, journal, checkpoint) survives.
// Called automatically when an injected PowerLoss fault surfaces from
// the FTL; callable directly to script a crash at an arbitrary point.
func (d *Device) Crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	d.res.Crashes++
}

// Restart powers the device back on at time now: it reruns crash
// recovery from the durable media image (checkpoint load, journal
// replay, full OOB scan), swaps in the recovered FTL with the device's
// hooks rewired, resets the volatile controller state, and charges the
// recovery work as device-wide busy time — every channel is unavailable
// until recovery completes. A second power cut during recovery (injected via
// the fault script) leaves the device crashed; Restart can simply be
// called again.
func (d *Device) Restart(now time.Duration) (ftl.RecoveryReport, error) {
	if !d.crashed {
		return ftl.RecoveryReport{}, fmt.Errorf("ssd: restart of a running device")
	}
	m := d.ftl.Media()
	if m == nil {
		return ftl.RecoveryReport{}, fmt.Errorf("ssd: restart without a journaled FTL (enable Config.FTL.Journal)")
	}
	var faultFn func(op fault.Op, block, pe int) bool
	if d.inj != nil {
		faultFn = d.inj.Fails
	}
	prior := d.ftl.Stats()
	f, rep, err := ftl.Recover(d.cfg.FTL, m, faultFn)
	if err != nil {
		return rep, err
	}
	d.ftlPrior = d.ftlPrior.Add(prior)
	d.ftl = f
	f.OnRelocate = func(lpn uint64, oldPPN, newPPN int64) {
		d.resetAge(newPPN, d.Now())
	}
	d.wireOnErase(f)
	// Controller RAM did not survive: the policy's per-block sensing
	// memory and the calibration tracker start cold.
	if r, ok := d.policy.(interface{ Reset() }); ok {
		r.Reset()
	}
	if d.calib != nil {
		d.calib.Reset()
	}
	// Recovery serializes the whole device: reads dominate (checkpoint
	// pages, journal frames, the OOB scan), plus the fresh checkpoint's
	// programs. Whatever was queued on the channels died with the power.
	rt := time.Duration(rep.TotalReads())*d.cfg.Timing.Read +
		time.Duration(rep.CheckpointWritePages)*d.cfg.Timing.Program
	for i := range d.chanFree {
		d.chanFree[i] = now + rt
	}
	d.res.RecoveryReads += int64(rep.TotalReads())
	d.res.RecoveryRecords += int64(rep.RecordsReplayed)
	d.res.RecoveryTornPages += int64(rep.TornPages)
	d.res.RecoveryTime += rt
	d.crashed = false
	return rep, nil
}

// MetaBytes reports the resident bytes of the device's mapping and
// retention metadata: the FTL's packed tables plus the per-page age
// tracking (DESIGN.md §16).
func (d *Device) MetaBytes() int64 {
	b := d.ftl.MetaBytes()
	if d.birth != nil {
		return b + 4*int64(len(d.birth))
	}
	return b + 8*int64(len(d.ageOffset)) + 8*int64(len(d.progTime))
}

// Results returns a snapshot of the accumulated metrics.
func (d *Device) Results() Results {
	r := d.res
	r.MetaBytes = d.MetaBytes()
	r.FTL = d.ftlPrior.Add(d.ftl.Stats())
	r.Faults = d.inj.Stats().Sub(d.faultBase)
	if d.berStats != nil {
		r.BERCache = d.berStats().Sub(d.berBase)
	}
	return r
}

// Degraded reports whether the device has entered degraded mode: reads
// are still served but new writes are rejected.
func (d *Device) Degraded() bool { return d.ftl.Degraded() }

// Now returns the time at which every flash channel is idle — a
// convenient "current device time" for callers scheduling background
// work.
func (d *Device) Now() time.Duration {
	var max time.Duration
	for _, t := range d.chanFree {
		if t > max {
			max = t
		}
	}
	return max
}
