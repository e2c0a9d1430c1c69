// Package ftl implements the flash translation layer of the FlexLevel
// storage system: a page-mapping FTL with greedy garbage collection,
// over-provisioning, and two block pools — normal-state blocks (full
// MLC capacity) and reduced-state blocks (LevelAdjust: only 3/4 of the
// page slots usable, paper §4.3). Block state switches happen at erase
// boundaries, mirroring the device constraint.
package ftl

import (
	"errors"
	"fmt"

	"flexlevel/internal/bitset"
	"flexlevel/internal/fault"
)

// ErrDegraded is returned by Write/Migrate once the device has lost so
// many blocks to retirement that it can no longer hold the logical space
// plus GC headroom: reads keep working, writes are rejected (a real
// controller goes read-only rather than corrupting data).
var ErrDegraded = errors.New("ftl: degraded mode, writes disabled (bad blocks exceed spare capacity)")

// ErrWriteFailed is returned when a program failed on MaxProgramRetries
// consecutive fresh blocks; the previous mapping of the page (if any) is
// left intact.
var ErrWriteFailed = errors.New("ftl: program retries exhausted")

// ErrNoFreeBlocks is returned when an append cannot allocate a target
// block: the logical space overcommits the pool, or retirements plus
// fragmentation have eaten the over-provisioned space faster than the
// degraded-mode capacity check could notice. Like ErrDegraded it marks
// the end of write service; stored data stays readable.
var ErrNoFreeBlocks = errors.New("ftl: out of free blocks")

// BlockError attributes a media-level failure to the physical block it
// hit, so timing layers can charge the wasted flash work to the channel
// that owns the block instead of guessing. It formats exactly like the
// error it wraps, and errors.Is/As see through it.
type BlockError struct {
	Block int
	Err   error
}

func (e *BlockError) Error() string { return e.Err.Error() }

func (e *BlockError) Unwrap() error { return e.Err }

// FailedBlock extracts the physical block a failure is attributed to;
// ok is false when the chain carries no BlockError.
func FailedBlock(err error) (block int, ok bool) {
	var be *BlockError
	if errors.As(err, &be) {
		return be.Block, true
	}
	return 0, false
}

// ErrPowerLoss is returned once an injected power cut has torn a
// physical media operation: the FTL is dead, every volatile structure
// is garbage, and only Recover over the durable Media brings the
// device back. The operation that observed the cut was never
// acknowledged.
var ErrPowerLoss = errors.New("ftl: power lost mid-operation")

// BlockState mirrors the LevelAdjust cell state at block granularity.
type BlockState int

const (
	// NormalState blocks hold full-capacity MLC pages.
	NormalState BlockState = iota
	// ReducedState blocks hold LevelAdjust pages at 75% density.
	ReducedState
)

func (s BlockState) String() string {
	if s == ReducedState {
		return "reduced"
	}
	return "normal"
}

// Config sizes the FTL.
type Config struct {
	LogicalPages  uint64
	PagesPerBlock int
	Blocks        int
	// ReducedFactor is the usable fraction of a reduced block's pages
	// (ReduceCode stores 3 bits where normal cells store 4).
	ReducedFactor float64
	// GCThreshold triggers garbage collection when the free-block count
	// drops below it; GCTarget is where collection stops.
	GCThreshold int
	GCTarget    int
	// InitialPE pre-ages every block to the experiment's P/E point.
	InitialPE int
	// SpareBlocks reserves that many blocks out of the physical space as
	// replacements for grown bad blocks: a retirement pulls one spare
	// into service so capacity (and GC headroom) is preserved until the
	// pool runs dry. 0 means no reserved spares.
	SpareBlocks int
	// MaxProgramRetries bounds how many fresh blocks a failing page
	// program is retried on before the write errs out. 0 selects
	// DefaultProgramRetries.
	MaxProgramRetries int
	// Journal enables the crash-consistency layer: per-page OOB
	// metadata, the write-ahead metadata journal and periodic
	// checkpoints (DESIGN.md §10). Disabled by default — a journal-free
	// FTL is bit-identical to the pre-journal implementation.
	Journal JournalConfig
}

// DefaultProgramRetries is the program-retry bound when
// Config.MaxProgramRetries is zero.
const DefaultProgramRetries = 3

// DefaultConfig returns the scaled evaluation system: a 512MB logical
// space (1/512 of the paper's 256GB) at 16KB pages with 27%
// over-provisioning (physical = logical / 0.73), 64-page (1MB) blocks.
func DefaultConfig() Config {
	logical := uint64(32768) // pages
	const ppb = 64
	phys := int(float64(logical)/0.73) + 1
	blocks := (phys + ppb - 1) / ppb
	return Config{
		LogicalPages:  logical,
		PagesPerBlock: ppb,
		Blocks:        blocks,
		ReducedFactor: 0.75,
		GCThreshold:   4,
		GCTarget:      5,
		InitialPE:     0,
	}
}

// Validate reports sizing problems.
func (c Config) Validate() error {
	if c.LogicalPages == 0 {
		return fmt.Errorf("ftl: zero logical pages")
	}
	if c.PagesPerBlock <= 0 || c.Blocks <= 0 {
		return fmt.Errorf("ftl: non-positive geometry %d pages/block, %d blocks", c.PagesPerBlock, c.Blocks)
	}
	if c.ReducedFactor <= 0 || c.ReducedFactor > 1 {
		return fmt.Errorf("ftl: reduced factor %g out of (0,1]", c.ReducedFactor)
	}
	phys := uint64(c.PagesPerBlock) * uint64(c.Blocks)
	if phys <= c.LogicalPages {
		return fmt.Errorf("ftl: physical pages %d not above logical %d (no over-provisioning)", phys, c.LogicalPages)
	}
	// The packed mapping tables (DESIGN.md §16) store ppns as int32 and,
	// with the journal on, LPNs in 29 bits of the OOB word.
	if phys > 1<<31-1 {
		return fmt.Errorf("ftl: physical pages %d exceed the packed table limit %d", phys, 1<<31-1)
	}
	if c.Journal.Enabled && c.LogicalPages > maxOOBLPN+1 {
		return fmt.Errorf("ftl: logical pages %d exceed the packed OOB limit %d", c.LogicalPages, maxOOBLPN+1)
	}
	if c.GCThreshold < 2 {
		return fmt.Errorf("ftl: GC threshold %d too small", c.GCThreshold)
	}
	if c.GCTarget <= c.GCThreshold {
		return fmt.Errorf("ftl: GC target %d must exceed threshold %d", c.GCTarget, c.GCThreshold)
	}
	if c.InitialPE < 0 {
		return fmt.Errorf("ftl: negative initial P/E")
	}
	if c.SpareBlocks < 0 {
		return fmt.Errorf("ftl: negative spare-block count")
	}
	if c.SpareBlocks >= c.Blocks {
		return fmt.Errorf("ftl: spare blocks %d not below total blocks %d", c.SpareBlocks, c.Blocks)
	}
	inService := uint64(c.PagesPerBlock) * uint64(c.Blocks-c.SpareBlocks)
	if inService <= c.LogicalPages {
		return fmt.Errorf("ftl: in-service pages %d (after %d spares) not above logical %d",
			inService, c.SpareBlocks, c.LogicalPages)
	}
	if c.MaxProgramRetries < 0 {
		return fmt.Errorf("ftl: negative program-retry bound")
	}
	if err := c.Journal.Validate(); err != nil {
		return err
	}
	return nil
}

// programRetries returns the effective program-retry bound.
func (c Config) programRetries() int {
	if c.MaxProgramRetries > 0 {
		return c.MaxProgramRetries
	}
	return DefaultProgramRetries
}

// OpCount tallies the physical operations one FTL call performed, for
// the timing simulator to charge.
type OpCount struct {
	Programs  int // page programs (user, GC copies and migrations)
	CopyReads int // page reads performed to relocate data
	Erases    int
	GCRuns    int
	// MetaPrograms counts metadata-page programs (journal flushes and
	// checkpoint pages); zero unless the journal is enabled.
	MetaPrograms int
}

// Add accumulates other into o.
func (o *OpCount) Add(other OpCount) {
	o.Programs += other.Programs
	o.CopyReads += other.CopyReads
	o.Erases += other.Erases
	o.GCRuns += other.GCRuns
	o.MetaPrograms += other.MetaPrograms
}

// Stats are cumulative FTL counters.
type Stats struct {
	UserPrograms      int64
	GCPrograms        int64
	MigrationPrograms int64
	CopyReads         int64
	Erases            int64
	GCRuns            int64

	// Fault handling / bad-block management.
	ProgramFailures int64 // page programs whose status read reported failure
	EraseFailures   int64 // erases whose status read reported failure
	GrownBadBlocks  int64 // blocks retired by the wear-out screen after a good erase
	RetiredBlocks   int64 // total blocks taken out of service
	SparesUsed      int64 // retirements backfilled from the spare pool
	RetireCopies    int64 // valid pages relocated off retiring blocks

	// Crash-consistency layer (zero unless Config.Journal is enabled).
	MetaPrograms   int64 // metadata-page programs (journal + checkpoints)
	JournalFlushes int64 // journal frames made durable
	Checkpoints    int64 // full mapping snapshots written
}

// Add returns the field-wise sum of s and other — used to carry
// counters across a crash/restart, where the recovered FTL starts with
// fresh statistics.
func (s Stats) Add(other Stats) Stats {
	s.UserPrograms += other.UserPrograms
	s.GCPrograms += other.GCPrograms
	s.MigrationPrograms += other.MigrationPrograms
	s.CopyReads += other.CopyReads
	s.Erases += other.Erases
	s.GCRuns += other.GCRuns
	s.ProgramFailures += other.ProgramFailures
	s.EraseFailures += other.EraseFailures
	s.GrownBadBlocks += other.GrownBadBlocks
	s.RetiredBlocks += other.RetiredBlocks
	s.SparesUsed += other.SparesUsed
	s.RetireCopies += other.RetireCopies
	s.MetaPrograms += other.MetaPrograms
	s.JournalFlushes += other.JournalFlushes
	s.Checkpoints += other.Checkpoints
	return s
}

// TotalPrograms returns all page programs performed.
func (s Stats) TotalPrograms() int64 {
	return s.UserPrograms + s.GCPrograms + s.MigrationPrograms
}

// WriteAmplification returns total programs per user program.
func (s Stats) WriteAmplification() float64 {
	if s.UserPrograms == 0 {
		return 1
	}
	return float64(s.TotalPrograms()) / float64(s.UserPrograms)
}

const unmapped = int64(-1)

// unmapped32 is the in-array sentinel of the packed mapping tables
// (DESIGN.md §16); the public API keeps speaking int64 ppns with
// unmapped as its sentinel.
const unmapped32 = int32(-1)

type activeBlock struct {
	block    int
	nextPage int
}

// FTL is the page-mapping flash translation layer. The mapping tables
// and per-block counters are packed (int32 arrays, bitsets) so a
// multi-million-page device fits in memory; Config.Validate bounds the
// geometry to what the packed layout can address.
type FTL struct {
	cfg Config

	l2p []int32 // lpn -> ppn (unmapped32 = unmapped)
	// p2l is the reverse map, allocated only when the journal is off:
	// with per-page OOB on the media, pageLPN derives the reverse
	// mapping from the OOB's LPN plus an l2p cross-check instead of
	// duplicating it in RAM.
	p2l        []int32
	blockValid []int32
	blockUsed  []int32 // pages programmed in block (valid + invalid)
	blockState []BlockState
	blockPE    []int32
	free       []int32     // free (erased) block indexes, LIFO
	bad        *bitset.Set // retired (grown bad) blocks, never reused
	// spare is the reserved replacement pool. Retirement always consumes
	// the highest-numbered spare and nothing is ever added, so the pool
	// only shrinks — a bitset (popped via Max) reproduces the old
	// ascending-slice order exactly.
	spare *bitset.Set

	active map[BlockState]*activeBlock

	stats     Stats
	wearSwaps int64
	retired   int // lifetime bad-block count (survives ResetStats)
	degraded  bool
	inRetire  bool // suppress nested faults while relocating off a bad block

	// Crash-consistency state (nil/zero unless cfg.Journal.Enabled).
	media    *Media   // durable image: per-page OOB, journal log, checkpoint
	pending  []Record // journal records buffered in RAM, lost on a power cut
	flushes  int      // journal flushes since the last checkpoint
	seq      uint64   // global mutation sequence number
	mediaOps int64    // physical media operations issued (PowerLoss check index)
	dead     bool     // a power cut fired; every entry point returns ErrPowerLoss

	// OnRelocate, when set, is called for every page the FTL moves
	// (GC copies), letting the caller refresh per-page metadata such as
	// program timestamps.
	OnRelocate func(lpn uint64, oldPPN, newPPN int64)
	// OnErase, when set, is called whenever a block is erased, letting
	// read-retry policies drop per-block state.
	OnErase func(block int)
	// Fault, when set, is consulted before the status of each physical
	// program and erase, and after each successful erase for the grown-
	// bad-block screen (fault.Program / fault.Erase / fault.Grown). A
	// true return injects the failure; the FTL handles retirement,
	// remapping and retry itself.
	Fault func(op fault.Op, block, pe int) bool
}

// New builds an FTL with every block free and in the normal state.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &FTL{cfg: cfg}
	phys := cfg.PagesPerBlock * cfg.Blocks
	f.l2p = make([]int32, cfg.LogicalPages)
	for i := range f.l2p {
		f.l2p[i] = unmapped32
	}
	if !cfg.Journal.Enabled {
		// No per-page OOB to derive the reverse map from.
		f.p2l = make([]int32, phys)
		for i := range f.p2l {
			f.p2l[i] = unmapped32
		}
	}
	f.blockValid = make([]int32, cfg.Blocks)
	f.blockUsed = make([]int32, cfg.Blocks)
	f.blockState = make([]BlockState, cfg.Blocks)
	f.blockPE = make([]int32, cfg.Blocks)
	for i := range f.blockPE {
		f.blockPE[i] = int32(cfg.InitialPE)
	}
	f.bad = bitset.New(cfg.Blocks)
	// The highest-numbered blocks form the reserved spare pool; the rest
	// start free and in service.
	f.spare = bitset.New(cfg.Blocks)
	for b := cfg.Blocks - cfg.SpareBlocks; b < cfg.Blocks; b++ {
		f.spare.Set(b)
	}
	f.free = make([]int32, 0, cfg.Blocks)
	for b := cfg.Blocks - cfg.SpareBlocks - 1; b >= 0; b-- {
		f.free = append(f.free, int32(b))
	}
	f.active = map[BlockState]*activeBlock{}
	if cfg.Journal.Enabled {
		f.media = newMedia(cfg)
	}
	return f, nil
}

// ------------------------------------------------- packed-table accessors

// mapOf reads the l2p table, widening the packed entry to the API's
// int64/unmapped convention.
func (f *FTL) mapOf(lpn uint64) int64 {
	if v := f.l2p[lpn]; v != unmapped32 {
		return int64(v)
	}
	return unmapped
}

// pageLPN returns the LPN currently stored at physical page p, or
// unmapped. With the journal on it derives the answer from the page's
// OOB (the durable copy of the reverse mapping): the OOB names the LPN
// programmed there, and the page holds live data exactly when l2p still
// points back at it.
func (f *FTL) pageLPN(p int64) int64 {
	if f.p2l != nil {
		if v := f.p2l[p]; v != unmapped32 {
			return int64(v)
		}
		return unmapped
	}
	oob := f.media.PageOOB(p)
	if !oob.Valid || oob.LPN >= f.cfg.LogicalPages {
		return unmapped
	}
	if int64(f.l2p[oob.LPN]) != p {
		return unmapped
	}
	return int64(oob.LPN)
}

// setP2L / clearP2L maintain the explicit reverse map when one exists;
// with the journal on they are no-ops (the OOB plus l2p is the map).
func (f *FTL) setP2L(p int64, lpn uint64) {
	if f.p2l != nil {
		f.p2l[p] = int32(lpn)
	}
}

func (f *FTL) clearP2L(p int64) {
	if f.p2l != nil {
		f.p2l[p] = unmapped32
	}
}

// Config returns the FTL's configuration.
func (f *FTL) Config() Config { return f.cfg }

// Stats returns cumulative counters.
func (f *FTL) Stats() Stats { return f.stats }

// FreeBlocks returns the current free-block count.
func (f *FTL) FreeBlocks() int { return len(f.free) }

// SpareBlocksLeft returns how many reserved spares remain unused.
func (f *FTL) SpareBlocksLeft() int { return f.spare.Count() }

// Degraded reports whether the FTL has entered degraded mode: reads are
// still served but Write/Migrate return ErrDegraded.
func (f *FTL) Degraded() bool { return f.degraded }

// Dead reports whether an injected power cut has killed the FTL. A dead
// FTL rejects every operation with ErrPowerLoss; Recover over Media
// builds its replacement.
func (f *FTL) Dead() bool { return f.dead }

// Media returns the durable media image, or nil when the journal is
// disabled. After a crash it is the sole input to Recover.
func (f *FTL) Media() *Media { return f.media }

// MediaOps returns how many physical media operations (page programs,
// erases, metadata-page programs) the FTL has issued. It is the
// coordinate space of fault.PowerLoss script indexes: scripting index N
// tears the operation that would have been mediaOps == N+1.
func (f *FTL) MediaOps() int64 { return f.mediaOps }

// EncodeState serializes the FTL's complete durable-logical state (the
// checkpoint encoding): mapping table, block states, wear, bad/spare
// pools. Two FTLs with equal EncodeState serve identical reads and
// fail identically; the recovery tests use it to prove idempotence.
func (f *FTL) EncodeState() []byte { return f.encodeCheckpoint() }

// BadBlock reports whether block b has been retired.
func (f *FTL) BadBlock(b int) bool { return f.bad.Get(b) }

// BlockPE returns the P/E count of block b.
func (f *FTL) BlockPE(b int) int { return int(f.blockPE[b]) }

// MeanPE returns the average block P/E count.
func (f *FTL) MeanPE() float64 {
	sum := int64(0)
	for _, pe := range f.blockPE {
		sum += int64(pe)
	}
	return float64(sum) / float64(len(f.blockPE))
}

// MetaBytes returns the FTL's metadata footprint in bytes: the packed
// mapping tables, per-block arrays, pools, and — with the journal on —
// the media's OOB arrays, journal log and checkpoint blob. The lifetime
// experiments report it per physical page to demonstrate the ≥4x
// packing win over the legacy struct layout (DESIGN.md §16).
func (f *FTL) MetaBytes() int64 {
	n := int64(len(f.l2p))*4 +
		int64(len(f.p2l))*4 +
		int64(len(f.blockValid))*4 +
		int64(len(f.blockUsed))*4 +
		int64(len(f.blockPE))*4 +
		int64(len(f.blockState))*8 + // BlockState is int-sized
		int64(cap(f.free))*4 +
		f.bad.Bytes() + f.spare.Bytes()
	return n + f.media.MetaBytes()
}

// usablePages returns the programmable page slots of a block in state s.
func (f *FTL) usablePages(s BlockState) int {
	if s == ReducedState {
		return int(float64(f.cfg.PagesPerBlock) * f.cfg.ReducedFactor)
	}
	return f.cfg.PagesPerBlock
}

// ppn computes the physical page number.
func (f *FTL) ppn(block, page int) int64 {
	return int64(block*f.cfg.PagesPerBlock + page)
}

// blockOf returns the block holding ppn.
func (f *FTL) blockOf(ppn int64) int { return int(ppn) / f.cfg.PagesPerBlock }

// Lookup resolves an LPN to its physical page and block state.
func (f *FTL) Lookup(lpn uint64) (ppn int64, state BlockState, ok bool) {
	if lpn >= f.cfg.LogicalPages {
		return 0, NormalState, false
	}
	p := f.mapOf(lpn)
	if p == unmapped {
		return 0, NormalState, false
	}
	return p, f.blockState[f.blockOf(p)], true
}

// Mapped reports whether the LPN currently has physical storage.
func (f *FTL) Mapped(lpn uint64) bool {
	return lpn < f.cfg.LogicalPages && f.l2p[lpn] != unmapped32
}

// ReducedPages returns how many logical pages currently live in reduced-
// state blocks.
func (f *FTL) ReducedPages() int {
	n := 0
	for b := 0; b < f.cfg.Blocks; b++ {
		if f.blockState[b] == ReducedState {
			n += int(f.blockValid[b])
		}
	}
	return n
}

// CapacityLoss returns the paper's §5 capacity-loss metric: the density
// penalty of the pages held in reduced state as a fraction of logical
// capacity, loss = (1 - ReducedFactor) × reducedPages / logicalPages.
// Storing everything reduced costs 25%; the paper's 64GB pool on 256GB
// costs 6%.
func (f *FTL) CapacityLoss() float64 {
	return (1 - f.cfg.ReducedFactor) * float64(f.ReducedPages()) / float64(f.cfg.LogicalPages)
}

// Write stores lpn into a block of the requested state, running GC as
// needed. It returns the new physical page and the operations performed.
func (f *FTL) Write(lpn uint64, state BlockState) (int64, OpCount, error) {
	var ops OpCount
	if lpn >= f.cfg.LogicalPages {
		return 0, ops, fmt.Errorf("ftl: lpn %d out of range", lpn)
	}
	if f.dead {
		return 0, ops, ErrPowerLoss
	}
	if f.degraded {
		return 0, ops, ErrDegraded
	}
	old := f.mapOf(lpn)
	f.invalidate(lpn)
	newPPN, err := f.appendPage(lpn, state, &ops)
	if err != nil {
		// Re-establish the previous mapping: a rejected write must not
		// lose the stored data.
		f.restoreMapping(lpn, old)
		return 0, ops, err
	}
	f.stats.UserPrograms++
	ops.Programs++
	f.maybeGC(&ops)
	return newPPN, ops, nil
}

// Trim discards lpn's mapping (the block-device TRIM/discard command):
// the physical page is invalidated without a rewrite, giving the
// collector free garbage. Trimming an unmapped page is a no-op.
func (f *FTL) Trim(lpn uint64) error {
	if lpn >= f.cfg.LogicalPages {
		return fmt.Errorf("ftl: trim lpn %d out of range", lpn)
	}
	if f.dead {
		return ErrPowerLoss
	}
	if f.l2p[lpn] == unmapped32 {
		return nil
	}
	f.invalidate(lpn)
	if f.media != nil {
		// No OOB backs a trim, so its record must be durable before the
		// trim is acknowledged: journal it and flush synchronously.
		if err := f.journalAppend(nil, Record{Type: recTrim, Seq: f.nextSeq(), LPN: lpn}); err != nil {
			return fmt.Errorf("ftl: trim lpn %d: %w", lpn, err)
		}
		if err := f.journalFlush(nil); err != nil {
			return fmt.Errorf("ftl: trim lpn %d: %w", lpn, err)
		}
	}
	return nil
}

// Migrate rewrites lpn into a block of the opposite pool (AccessEval's
// normal <-> reduced conversion). It costs one copy read plus one
// program, attributed to migration.
func (f *FTL) Migrate(lpn uint64, state BlockState) (int64, OpCount, error) {
	var ops OpCount
	if !f.Mapped(lpn) {
		return 0, ops, fmt.Errorf("ftl: migrate of unmapped lpn %d", lpn)
	}
	if f.dead {
		return 0, ops, ErrPowerLoss
	}
	if f.degraded {
		return 0, ops, ErrDegraded
	}
	ops.CopyReads++
	f.stats.CopyReads++
	old := f.mapOf(lpn)
	f.invalidate(lpn)
	newPPN, err := f.appendPage(lpn, state, &ops)
	if err != nil {
		f.restoreMapping(lpn, old)
		return 0, ops, err
	}
	f.stats.MigrationPrograms++
	ops.Programs++
	f.maybeGC(&ops)
	return newPPN, ops, nil
}

func (f *FTL) invalidate(lpn uint64) {
	old := f.mapOf(lpn)
	if old == unmapped {
		return
	}
	// Clear l2p first: with the journal on, the derived reverse mapping
	// of old reads unmapped the moment l2p stops pointing at it.
	f.l2p[lpn] = unmapped32
	f.clearP2L(old)
	f.blockValid[f.blockOf(old)]--
}

// restoreMapping re-establishes a mapping undone by invalidate when the
// rewrite that followed it failed. A no-op for previously-unmapped pages.
func (f *FTL) restoreMapping(lpn uint64, old int64) {
	if old == unmapped {
		return
	}
	f.l2p[lpn] = int32(old)
	f.setP2L(old, lpn)
	f.blockValid[f.blockOf(old)]++
}

// ---------------------------------------------- crash-consistency plumbing

// mediaTick accounts one physical media operation (a page program, an
// erase, or — for block < 0 — a metadata-page program) and consults the
// fault hook for an injected power cut. It returns false when power
// dies during this very operation: the op is torn and the FTL is dead.
// Unlike program/erase-status faults, power loss is never suppressed
// during retirement relocation — power can die anywhere.
func (f *FTL) mediaTick(block int) bool {
	if f.dead {
		return false
	}
	f.mediaOps++
	if f.Fault != nil {
		pe := 0
		if block >= 0 {
			pe = int(f.blockPE[block])
		}
		if f.Fault(fault.PowerLoss, block, pe) {
			f.dead = true
			return false
		}
	}
	return true
}

// nextSeq assigns the next global mutation sequence number. Records are
// buffered and flushed in FIFO order, so every flushed record has a
// lower seq than every unflushed one — the ordering recovery relies on
// to rank OOB-scan candidates against the replayed journal.
func (f *FTL) nextSeq() uint64 {
	f.seq++
	return f.seq
}

// journalAppend buffers one record, flushing the buffer to the durable
// journal once it reaches the configured page capacity. ops (which may
// be nil, e.g. on the Trim path) is charged for metadata programs.
func (f *FTL) journalAppend(ops *OpCount, r Record) error {
	if f.media == nil {
		return nil
	}
	if f.dead {
		return ErrPowerLoss
	}
	f.pending = append(f.pending, r)
	if len(f.pending) >= f.cfg.Journal.flushRecords() {
		return f.journalFlush(ops)
	}
	return nil
}

// journalFlush programs the buffered records into the journal as one
// CRC-framed metadata page. A power cut during the flush tears the
// frame: its records die with the RAM buffer — none were acknowledged
// through this flush (programs they describe may still be recovered
// from their own OOB).
func (f *FTL) journalFlush(ops *OpCount) error {
	if f.media == nil || len(f.pending) == 0 {
		return nil
	}
	if f.dead {
		return ErrPowerLoss
	}
	if !f.mediaTick(-1) {
		// Torn flush: the interrupted frame is trailing garbage that
		// DecodeJournal recognizes as a torn tail and discards.
		f.media.journal = append(f.media.journal, 0x46)
		f.pending = nil
		return ErrPowerLoss
	}
	f.media.journal = AppendFrame(f.media.journal, f.pending)
	f.pending = f.pending[:0]
	f.stats.JournalFlushes++
	f.stats.MetaPrograms++
	if ops != nil {
		ops.MetaPrograms++
	}
	f.flushes++
	if f.flushes >= f.cfg.Journal.checkpointEvery() {
		return f.writeCheckpoint(ops)
	}
	return nil
}

// metaPageBytes sizes the metadata pages holding checkpoint blobs,
// matching the 16KB data page: a checkpoint costs ceil(len/16KB)
// metadata-page programs.
const metaPageBytes = 16 * 1024

// writeCheckpoint snapshots the full mapping state and truncates the
// journal. The checkpoint area is two-slot: the old checkpoint is
// replaced only after the last page of the new one has programmed, so
// a power cut mid-checkpoint falls back to the old checkpoint plus the
// old (untruncated) journal.
func (f *FTL) writeCheckpoint(ops *OpCount) error {
	if f.media == nil {
		return nil
	}
	blob := f.encodeCheckpoint()
	pages := (len(blob) + metaPageBytes - 1) / metaPageBytes
	if pages < 1 {
		pages = 1
	}
	for i := 0; i < pages; i++ {
		if !f.mediaTick(-1) {
			return ErrPowerLoss
		}
		f.stats.MetaPrograms++
		if ops != nil {
			ops.MetaPrograms++
		}
	}
	f.media.checkpoint = blob
	f.media.journal = f.media.journal[:0]
	f.flushes = 0
	f.stats.Checkpoints++
	return nil
}

// failProgram consults the fault hook for a page program on block b.
// Faults are suppressed while relocating off a retiring block: the
// relocation is already the failure path, and a nested fault there
// (vanishingly rare on silicon) would recurse.
func (f *FTL) failProgram(b int) bool {
	return f.Fault != nil && !f.inRetire && f.Fault(fault.Program, b, int(f.blockPE[b]))
}

// appendPage places lpn on the active block of the given state,
// allocating a fresh block when needed. A program-status failure retires
// the target block (its earlier pages are remapped elsewhere) and the
// program is replayed on a fresh block, up to the configured retry
// bound; every failed attempt is still charged as a program.
func (f *FTL) appendPage(lpn uint64, state BlockState, ops *OpCount) (int64, error) {
	if f.dead {
		return 0, ErrPowerLoss
	}
	for retries := 0; ; retries++ {
		ab := f.active[state]
		if ab == nil || ab.nextPage >= f.usablePages(state) {
			b, err := f.allocBlock(state, ops)
			if err != nil {
				return 0, fmt.Errorf("ftl: append lpn %d: %w", lpn, err)
			}
			ab = &activeBlock{block: b}
			f.active[state] = ab
		}
		page := ab.nextPage
		p := f.ppn(ab.block, page)
		ab.nextPage++
		f.blockUsed[ab.block]++
		// A reduced-state page programs in two pulses (ReduceCode's
		// coarse/fine sequence, paper §4.3), so power can die between
		// them; either way the page is torn.
		steps := 1
		if state == ReducedState {
			steps = 2
		}
		for s := 0; s < steps; s++ {
			if !f.mediaTick(ab.block) {
				if f.media != nil {
					f.media.setTorn(p) // torn page: OOB fails its CRC
				}
				return 0, fmt.Errorf("ftl: program block %d page %d (lpn %d): %w",
					ab.block, page, lpn, ErrPowerLoss)
			}
		}
		if f.failProgram(ab.block) {
			ops.Programs++ // the failed pulse sequence still costs tPROG
			f.stats.ProgramFailures++
			if f.media != nil {
				// A status-failed program leaves garbage in the page; its
				// OOB fails the CRC check just like a torn page.
				f.media.setTorn(p)
			}
			f.retire(ab.block, ops)
			if f.dead {
				return 0, fmt.Errorf("ftl: retire of block %d: %w", ab.block, ErrPowerLoss)
			}
			if retries >= f.cfg.programRetries() {
				return 0, &BlockError{Block: ab.block,
					Err: fmt.Errorf("ftl: program block %d page %d (lpn %d, %v pool): %w",
						ab.block, page, lpn, state, ErrWriteFailed)}
			}
			continue
		}
		f.l2p[lpn] = int32(p)
		f.setP2L(p, lpn)
		f.blockValid[ab.block]++
		if f.media != nil {
			seq := f.nextSeq()
			f.media.setProgrammed(p, lpn, state, seq)
			if f.journalAppend(ops, Record{
				Type: recProgram, Seq: seq, LPN: lpn, PPN: p, State: state,
			}) != nil {
				// Power died flushing the journal — but the program itself
				// landed and its OOB is durable, so recovery re-derives the
				// mapping without the record. The write stays acknowledged;
				// the caller notices the dead FTL on its next operation.
				return p, nil
			}
		}
		return p, nil
	}
}

// RetireBlock takes block b out of service on the controller's own
// initiative — the adaptive ladder's last resort when a block stays
// unreadable through recalibration and refresh. It is the public face
// of the same retire path program/erase failures use: the block is
// marked bad, its valid pages relocate, a spare backfills if one is
// left, and the returned OpCount carries the flash work so the caller
// can charge it. Retiring an already-bad block is a no-op.
func (f *FTL) RetireBlock(b int) (OpCount, error) {
	var ops OpCount
	if b < 0 || b >= f.cfg.Blocks {
		return ops, fmt.Errorf("ftl: retire of block %d out of range", b)
	}
	if f.dead {
		return ops, ErrPowerLoss
	}
	if f.bad.Get(b) {
		return ops, nil
	}
	f.retire(b, &ops)
	if f.dead {
		return ops, fmt.Errorf("ftl: retire of block %d: %w", b, ErrPowerLoss)
	}
	return ops, nil
}

// retire takes block b out of service: it is marked bad, its remaining
// valid pages are remapped to fresh blocks (remap-and-replay), and a
// spare block — if one is left — backfills the lost capacity. With the
// spare pool dry, capacity shrinks; once it cannot hold the logical
// space plus GC headroom the FTL enters degraded mode.
func (f *FTL) retire(b int, ops *OpCount) {
	f.bad.Set(b)
	f.retired++
	f.stats.RetiredBlocks++
	if f.media != nil && !f.dead {
		// Journal the retirement before relocating: replay re-marks the
		// block bad and re-pulls its spare even when the relocations that
		// follow never reach the journal (their OOB still does).
		if f.journalAppend(ops, Record{Type: recRetire, Seq: f.nextSeq(), Block: int32(b)}) != nil {
			return // power died in the flush; the FTL is dead
		}
	}
	for state, ab := range f.active {
		if ab != nil && ab.block == b {
			f.active[state] = nil
		}
	}
	state := f.blockState[b]
	wasRetiring := f.inRetire
	f.inRetire = true
	base := f.ppn(b, 0)
	for p := 0; p < f.cfg.PagesPerBlock; p++ {
		old := base + int64(p)
		lpn := f.pageLPN(old)
		if lpn == unmapped {
			continue
		}
		f.l2p[lpn] = unmapped32
		f.clearP2L(old)
		f.blockValid[b]--
		newPPN, err := f.appendPage(uint64(lpn), state, ops)
		if err != nil {
			// No room to relocate: keep the page mapped where it is. A
			// bad block's programmed data stays readable; the block is
			// simply never erased or programmed again.
			f.restoreMapping(uint64(lpn), old)
			break
		}
		ops.CopyReads++
		ops.Programs++
		f.stats.CopyReads++
		f.stats.RetireCopies++
		if f.OnRelocate != nil {
			f.OnRelocate(uint64(lpn), old, newPPN)
		}
	}
	f.inRetire = wasRetiring
	if s, ok := f.spare.Max(); ok {
		f.spare.Clear(s)
		f.free = append(f.free, int32(s))
		f.stats.SparesUsed++
	}
	f.checkDegraded()
}

// checkDegraded flips the FTL into degraded mode when the surviving
// blocks can no longer hold the logical space plus GC headroom. The
// check assumes full (normal-state) block capacity, so it is the
// last-resort floor; reduced-state pools may stall GC slightly earlier
// and surface as ErrWriteFailed/alloc errors instead.
func (f *FTL) checkDegraded() {
	// Unused spares live inside cfg.Blocks, so every non-retired block —
	// free, programmed, or reserved — is surviving capacity.
	surviving := f.cfg.Blocks - f.retired
	capacity := uint64(surviving) * uint64(f.cfg.PagesPerBlock)
	need := f.cfg.LogicalPages + uint64(f.cfg.GCTarget)*uint64(f.cfg.PagesPerBlock)
	if capacity < need {
		f.degraded = true
	}
}

// allocBlock hands out the least-worn free block (dynamic wear
// leveling: erased blocks rotate by wear instead of recency).
func (f *FTL) allocBlock(state BlockState, ops *OpCount) (int, error) {
	if len(f.free) == 0 {
		return 0, fmt.Errorf("%w (logical space overcommitted for the %v pool; %d blocks retired, %d spares left)",
			ErrNoFreeBlocks, state, f.retired, f.spare.Count())
	}
	best := 0
	for i := 1; i < len(f.free); i++ {
		if f.blockPE[f.free[i]] < f.blockPE[f.free[best]] {
			best = i
		}
	}
	b := int(f.free[best])
	f.free[best] = f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.blockState[b] = state // erased block: state switch is legal
	f.blockUsed[b] = 0
	if f.media != nil {
		if err := f.journalAppend(ops, Record{Type: recAlloc, Seq: f.nextSeq(), Block: int32(b), State: state}); err != nil {
			return 0, fmt.Errorf("ftl: alloc block %d (%v pool): %w", b, state, err)
		}
	}
	return b, nil
}

// maybeGC reclaims blocks greedily until the free count reaches the
// target, whenever it has fallen below the threshold.
func (f *FTL) maybeGC(ops *OpCount) {
	if f.dead || len(f.free) >= f.cfg.GCThreshold {
		return
	}
	f.stats.GCRuns++
	ops.GCRuns++
	for len(f.free) < f.cfg.GCTarget {
		if f.dead {
			return
		}
		victim := f.pickVictim()
		if victim < 0 {
			return // nothing reclaimable
		}
		if !f.reclaim(victim, ops) {
			return // relocation stalled; avoid spinning
		}
	}
}

// pickVictim returns the fully-written non-active block with the fewest
// valid pages, or -1. Blocks with no invalid pages are skipped: erasing
// them reclaims nothing and would loop the collector forever.
func (f *FTL) pickVictim() int {
	best, bestValid := -1, 1<<31
	for b := 0; b < f.cfg.Blocks; b++ {
		usable := f.usablePages(f.blockState[b])
		if f.bad.Get(b) || int(f.blockUsed[b]) < usable {
			continue // retired, or still open / free
		}
		if f.blockUsed[b] == 0 || int(f.blockValid[b]) >= usable {
			continue // free, or fully valid: no garbage to reclaim
		}
		// The open-block check scans the active set, so it runs only for
		// a block that would otherwise become the new best.
		if int(f.blockValid[b]) < bestValid && !f.isActive(b) {
			best, bestValid = b, int(f.blockValid[b])
		}
	}
	return best
}

func (f *FTL) isActive(b int) bool {
	for _, ab := range f.active {
		if ab != nil && ab.block == b {
			return true
		}
	}
	return false
}

// reclaim relocates the victim's valid pages (same state pool) and
// erases it. It reports false when relocation stalled (no free blocks
// for the copies), leaving all mappings intact.
func (f *FTL) reclaim(victim int, ops *OpCount) bool {
	state := f.blockState[victim]
	base := f.ppn(victim, 0)
	for p := 0; p < f.cfg.PagesPerBlock; p++ {
		old := base + int64(p)
		lpn := f.pageLPN(old)
		if lpn == unmapped {
			continue
		}
		// Relocate: invalidate then append to the same pool.
		f.l2p[lpn] = unmapped32
		f.clearP2L(old)
		f.blockValid[victim]--
		newPPN, err := f.appendPage(uint64(lpn), state, ops)
		if err != nil {
			// Re-establish the old mapping; the caller sees a stuck FTL
			// rather than lost data.
			f.l2p[lpn] = int32(old)
			f.setP2L(old, uint64(lpn))
			f.blockValid[victim]++
			return false
		}
		ops.CopyReads++
		ops.Programs++
		f.stats.CopyReads++
		f.stats.GCPrograms++
		if f.OnRelocate != nil {
			f.OnRelocate(uint64(lpn), old, newPPN)
		}
	}
	if !f.mediaTick(victim) {
		// The erase pulse was interrupted by power loss. Model it as
		// completed on the media (the block reads erased) but never
		// journaled: recovery sees a block full of stale garbage and
		// simply collects it again.
		if f.media != nil {
			f.media.eraseBlock(victim)
		}
		ops.Erases++
		return false
	}
	if f.Fault != nil && f.Fault(fault.Erase, victim, int(f.blockPE[victim])) {
		// Erase-status failure: the erase pulse was spent but the block
		// would not clear — retire it instead of returning it to the
		// free pool. All data was relocated above, so nothing is lost.
		// The used count is NOT reset: the block still reads as fully
		// programmed, which keeps recovery's OOB scan out of its stale
		// spare areas.
		ops.Erases++
		f.stats.EraseFailures++
		f.retire(victim, ops)
		return !f.dead
	}
	f.blockUsed[victim] = 0
	f.blockPE[victim]++
	f.stats.Erases++
	ops.Erases++
	if f.media != nil {
		f.media.eraseBlock(victim)
		// The erase record is flushed synchronously before the block can
		// re-enter the free pool: recovery's OOB scan starts at each
		// block's journal-known fill level, so a reused block must never
		// carry fresher pages than an undeclared erase would hide.
		if f.journalAppend(ops, Record{
			Type: recErase, Seq: f.nextSeq(), Block: int32(victim), PE: f.blockPE[victim],
		}) != nil || f.journalFlush(ops) != nil {
			return false
		}
	}
	if f.OnErase != nil {
		f.OnErase(victim)
	}
	if f.Fault != nil && f.Fault(fault.Grown, victim, int(f.blockPE[victim])) {
		// Wear-out screen after a good erase: the block is detected as
		// end-of-life (a grown bad block) and retired before reuse.
		f.stats.GrownBadBlocks++
		f.retire(victim, ops)
		return !f.dead
	}
	f.free = append(f.free, int32(victim))
	return true
}

// ResetStats zeroes the cumulative counters (used after preconditioning
// a device so experiments measure only the workload itself).
func (f *FTL) ResetStats() { f.stats = Stats{} }
