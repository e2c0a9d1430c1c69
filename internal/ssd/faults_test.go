package ssd

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
)

// emptyPolicy violates the ReadPolicy contract by returning no attempts.
type emptyPolicy struct{}

func (emptyPolicy) Attempts(int, int) []int { return nil }
func (emptyPolicy) Name() string            { return "empty" }

func TestEmptyAttemptsGuard(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), emptyPolicy{})
	resp, final := d.Read(0, 1) // must not panic
	if final != 0 {
		t.Errorf("final level = %d, want 0 (hard-decision fallback)", final)
	}
	if want := d.cfg.Timing.ReadLatency(0); resp != want {
		t.Errorf("resp = %v, want one hard-decision read %v", resp, want)
	}
	r := d.Results()
	if r.SensingAttempts != 1 || r.LevelHist[0] != 1 {
		t.Errorf("results = %+v, want exactly one level-0 attempt", r)
	}
}

func TestValidateErrorBranches(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.FTL.LogicalPages = 0 }, "ftl:"},
		{func(c *Config) { c.Rule.Target = 2 }, "target UBER"},
		{func(c *Config) { c.BufferPages = -1 }, "buffer pages"},
		{func(c *Config) { c.BufferLatency = -time.Second }, "buffer latency"},
		{func(c *Config) { c.MaxDataAgeHours = -1 }, "data age"},
		{func(c *Config) { c.Channels = -1 }, "channel count"},
		{func(c *Config) { c.WearLevelEvery = -1 }, "wear-level"},
		{func(c *Config) { c.RefreshAboveLevels = -1 }, "refresh threshold"},
		{func(c *Config) { c.MaxReadRetries = -1 }, "read-retry"},
		{func(c *Config) { c.Faults.Read.Base = 2 }, "fault:"},
	}
	for i, tc := range cases {
		c := smallConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
		if _, err := New(c, flatBER(0, 0), baseline.Oracle{}); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// readScript builds a config whose injector fails exactly the first n
// transient-read checks.
func readScript(n int, maxRetries int) Config {
	cfg := smallConfig()
	cfg.MaxReadRetries = maxRetries
	for i := 0; i < n; i++ {
		cfg.Faults.Script = append(cfg.Faults.Script, fault.ScriptEvent{Op: fault.Read, Index: int64(i)})
	}
	return cfg
}

func TestTransientReadRetryEscalation(t *testing.T) {
	d, err := New(readScript(2, 3), flatBER(0, 0), baseline.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	resp, final := d.Read(0, 1)
	r := d.Results()
	if r.TransientReadFaults != 2 || r.ReadRetries != 2 || r.DataLoss != 0 {
		t.Errorf("results = %+v, want 2 transient faults, 2 retries, no loss", r)
	}
	// Oracle needs 1 attempt; the two retries escalate to levels 1 and 2
	// and each is charged.
	if r.SensingAttempts != 3 {
		t.Errorf("SensingAttempts = %d, want 3", r.SensingAttempts)
	}
	if final != 2 {
		t.Errorf("final level = %d, want 2 after two escalations", final)
	}
	want := d.cfg.Timing.ReadLatency(0) + d.cfg.Timing.ReadLatency(1) + d.cfg.Timing.ReadLatency(2)
	if resp != want {
		t.Errorf("resp = %v, want %v (retries charged)", resp, want)
	}
	// The next read sees no scripted fault and is clean.
	if _, final := d.Read(time.Second, 2); final != 0 {
		t.Errorf("clean read escalated to level %d", final)
	}
	// 3 checks on the faulty read (2 hits + 1 miss ending the loop) plus
	// 1 on the clean read.
	if r := d.Results(); r.Faults.Injected[fault.Read] != 2 || r.Faults.Checked[fault.Read] != 4 {
		t.Errorf("injector stats = %+v, want 2 injected / 4 checked", r.Faults)
	}
}

func TestReadRetryExhaustionIsDataLoss(t *testing.T) {
	d, err := New(readScript(4, 3), flatBER(0, 0), baseline.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	d.Read(0, 1)
	r := d.Results()
	if r.DataLoss != 1 {
		t.Errorf("DataLoss = %d, want 1 after exhausting the retry bound", r.DataLoss)
	}
	if r.TransientReadFaults != 4 || r.ReadRetries != 3 {
		t.Errorf("results = %+v, want 4 faults and 3 charged retries", r)
	}
}

// TestZeroRateFaultsBitIdentical: a present-but-zero fault config must
// leave the simulation bit-identical to a device without one.
func TestZeroRateFaultsBitIdentical(t *testing.T) {
	run := func(cfg Config) Results {
		d, err := New(cfg, agedBER(1e-6), baseline.NewLDPCInSSD())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := 0; i < 4000; i++ {
			lpn := uint64(i*37) % 512
			if i%3 == 0 {
				if _, err := d.Write(now, lpn, ftl.NormalState); err != nil {
					t.Fatal(err)
				}
			} else {
				d.Read(now, lpn)
			}
			now += 40 * time.Microsecond
		}
		return d.Results()
	}
	plain := run(smallConfig())
	zeroed := smallConfig()
	zeroed.Faults = fault.Config{Seed: 99} // seeded but zero rates: disabled
	if got := run(zeroed); !reflect.DeepEqual(plain, got) {
		t.Errorf("zero-rate fault config changed results:\nplain: %+v\nfault: %+v", plain, got)
	}
}

// TestScriptedFaultScenario is the acceptance scenario: a program
// failure is retried on a fresh block, erase failures retire blocks into
// the spare pool, and once the spares are gone the device degrades —
// reads still served, writes rejected gracefully — with every step
// visible in the counters.
func TestScriptedFaultScenario(t *testing.T) {
	cfg := smallConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  64,
		PagesPerBlock: 8,
		Blocks:        16,
		SpareBlocks:   2,
		ReducedFactor: 0.75,
		GCThreshold:   4,
		GCTarget:      6,
	}
	// The first page program fails; after that, every erase fails.
	cfg.Faults.Script = []fault.ScriptEvent{{Op: fault.Program, Index: 0}}
	for i := 0; i < 1000; i++ {
		cfg.Faults.Script = append(cfg.Faults.Script, fault.ScriptEvent{Op: fault.Erase, Index: int64(i)})
	}
	d, err := New(cfg, flatBER(0, 0), baseline.NewLDPCInSSD())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — the very first write hits a program-status failure and
	// must transparently replay on a fresh block.
	now := time.Duration(0)
	if _, err := d.Write(now, 0, ftl.NormalState); err != nil {
		t.Fatalf("write across program failure: %v", err)
	}
	r := d.Results()
	if r.FTL.ProgramFailures != 1 || r.FTL.RetiredBlocks != 1 || r.FTL.SparesUsed != 1 {
		t.Fatalf("after program failure: %+v, want 1 failure / 1 retirement / 1 spare", r.FTL)
	}
	if ppn, _, ok := d.ftl.Lookup(0); !ok || d.ftl.BadBlock(int(ppn)/cfg.FTL.PagesPerBlock) {
		t.Fatal("replayed write not mapped onto a healthy block")
	}

	// Phase 2 — map the full space, then overwrite until GC needs an
	// erase; the scripted erase failure retires the victim into the
	// second (and last) spare.
	for lpn := uint64(1); lpn < 64; lpn++ {
		if _, err := d.Write(now, lpn, ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; d.Results().FTL.EraseFailures == 0 && i < 5000; i++ {
		if _, err := d.Write(now, uint64(i)%64, ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	r = d.Results()
	if r.FTL.EraseFailures == 0 {
		t.Fatal("GC never hit the scripted erase failure")
	}
	if r.FTL.SparesUsed != 2 {
		t.Fatalf("SparesUsed = %d, want both spares consumed", r.FTL.SparesUsed)
	}

	// Phase 3 — with the spare pool dry, continuing erase failures must
	// degrade the device instead of hard-erroring.
	for i := 0; !d.Degraded() && i < 20000; i++ {
		if _, err := d.Write(now, uint64(i)%64, ftl.NormalState); err != nil {
			t.Fatalf("write before degradation: %v", err)
		}
	}
	if !d.Degraded() {
		t.Fatal("device never entered degraded mode")
	}
	// Writes are rejected gracefully (no error, counted), reads and the
	// stored data still work.
	pre := d.Results().WritesRejected
	if _, err := d.Write(now, 7, ftl.NormalState); err != nil {
		t.Fatalf("degraded-mode write returned hard error: %v", err)
	}
	r = d.Results()
	if r.WritesRejected != pre+1 {
		t.Errorf("WritesRejected = %d, want %d", r.WritesRejected, pre+1)
	}
	for lpn := uint64(0); lpn < 64; lpn++ {
		if _, _, ok := d.ftl.Lookup(lpn); !ok {
			t.Fatalf("lpn %d lost in degraded mode", lpn)
		}
	}
	if resp, _ := d.Read(now, 7); resp <= 0 {
		t.Error("degraded-mode read not served")
	}
	if r.FTL.RetiredBlocks < 3 {
		t.Errorf("RetiredBlocks = %d, want >= 3", r.FTL.RetiredBlocks)
	}
	if r.Faults.TotalInjected() != r.FTL.ProgramFailures+r.FTL.EraseFailures {
		t.Errorf("injector total %d != program+erase failures %d",
			r.Faults.TotalInjected(), r.FTL.ProgramFailures+r.FTL.EraseFailures)
	}
}
