package ssd

import (
	"math"
	"sync"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/calib"
	"flexlevel/internal/ftl"
	"flexlevel/internal/sensing"
)

// spreadBER spans every sensing-level regime, unreadable included: a
// preloaded page's age (0..720 h) maps to BER 1e-4..7.2e-2. Moving the
// read references towards -120 mV halves it, so calibration has
// something to find and calibrated blocks read at shifted BERs.
func spreadBER() (BERFunc, ShiftedBERFunc) {
	shifted := func(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
		base := 1e-4 + 1e-4*ageHours + 1e-3*float64(pe%9)
		return base * (0.5 + math.Abs(float64(shiftMv+120))/240)
	}
	berOf := func(state ftl.BlockState, pe int, ageHours float64) float64 {
		return shifted(state, pe, ageHours, 0)
	}
	return berOf, shifted
}

// pageBERNow is the raw BER a read of lpn at now is evaluated at,
// calibration shift included.
func pageBERNow(d *Device, lpn uint64, now time.Duration) float64 {
	ppn, state, ok := d.ftl.Lookup(lpn)
	if !ok {
		return 0
	}
	block := int(ppn) / d.cfg.FTL.PagesPerBlock
	return d.pageBER(state, d.ftl.BlockPE(block), d.ageHours(ppn, now), block)
}

// TestReadLevelsMatchRuleOracle checks the one device mode against the
// direct bisection rule: every read's level, and every patrol of a
// calibrated block, equals LevelRule.RequiredLevels at the page's BER.
func TestReadLevelsMatchRuleOracle(t *testing.T) {
	rule := sensing.DefaultRule()
	berOf, shifted := spreadBER()

	t.Run("reads", func(t *testing.T) {
		d := newDevice(t, berOf, baseline.Oracle{})
		var seen [sensing.MaxExtraLevels + 1]bool
		unreadable := false
		for i := 0; i < 2000; i++ {
			lpn := uint64(i*7) % 512
			now := time.Duration(i) * time.Millisecond
			want, ok := rule.RequiredLevels(pageBERNow(d, lpn, now))
			if _, got := d.Read(now, lpn); got != want {
				t.Fatalf("read %d (lpn %d): level %d, rule says %d", i, lpn, got, want)
			}
			seen[want] = true
			unreadable = unreadable || !ok
		}
		for l, s := range seen {
			if !s {
				t.Errorf("level %d never exercised", l)
			}
		}
		if !unreadable {
			t.Error("no unreadable page exercised")
		}
	})

	t.Run("calibrated", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Calib = calib.DefaultConfig()
		d, err := New(cfg, berOf, baseline.NewAdaptiveRetry(0))
		if err != nil {
			t.Fatal(err)
		}
		d.SetShiftedBER(shifted)
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			lpn := uint64(i*13) % 512
			now := time.Duration(i) * time.Millisecond
			wantL, wantOK := rule.RequiredLevels(pageBERNow(d, lpn, now))
			if gotL, gotOK := d.Patrol(lpn, now); gotL != wantL || gotOK != wantOK {
				t.Fatalf("patrol %d (lpn %d): (%d,%v), rule says (%d,%v)", i, lpn, gotL, gotOK, wantL, wantOK)
			}
			d.Read(now, lpn) // recalibrates blocks as it goes
		}
		shiftedBlocks := 0
		for b := 0; b < cfg.FTL.Blocks; b++ {
			if d.Calib().ShiftMv(b) != 0 {
				shiftedBlocks++
			}
		}
		if shiftedBlocks == 0 {
			t.Fatal("no block recalibrated; shifted BERs went unchecked")
		}
	})
}

// bracketBER finds a BER inside one of tab's threshold brackets, where
// the thresholds alone cannot answer, by bisecting the level-0/level-1
// boundary until a lookup has to probe.
func bracketBER(t *testing.T, tab *sensing.LevelTable) float64 {
	t.Helper()
	lo, hi := 1e-4, 1e-1
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		l, _, probed := tab.Lookup(mid)
		if probed {
			return mid
		}
		if l == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	t.Fatal("bisection never landed inside a threshold bracket")
	return 0
}

// TestLevelCounterSemantics pins what Results.LevelCache counts for the
// level table: a lookup the thresholds answer is a hit, one inside a
// threshold bracket (which runs the rule's predicate) is a miss.
func TestLevelCounterSemantics(t *testing.T) {
	tab, err := sensing.TableFor(sensing.DefaultRule())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		ber        float64
		hits, miss int64
	}{
		{"threshold", 1e-3, 1, 0},
		{"bracket", bracketBER(t, tab), 0, 1},
	} {
		d := newDevice(t, flatBER(tc.ber, tc.ber), baseline.Oracle{})
		d.Read(0, 3)
		got := d.Results().LevelCache
		if want := (CacheStats{Hits: tc.hits, Misses: tc.miss}); got != want {
			t.Errorf("%s BER %.17g: counters %+v, want %+v", tc.name, tc.ber, got, want)
		}
	}
}

// TestDevicesShareLevelTable builds devices for one rule from several
// goroutines (run it under -race): they must all hold the same table and
// serve identical reads.
func TestDevicesShareLevelTable(t *testing.T) {
	cfg := smallConfig()
	// A rule no other test uses, so the first build races here.
	cfg.Rule.KStep++
	berOf, _ := spreadBER()
	const n = 6
	devs := make([]*Device, n)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := New(cfg, berOf, baseline.NewLDPCInSSD())
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Preload(512); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 500; j++ {
				d.Read(time.Duration(j)*time.Millisecond, uint64(j*11)%512)
			}
			devs[i] = d
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := devs[0].Results()
	for i, d := range devs {
		if d.levels != devs[0].levels {
			t.Errorf("device %d holds its own level table", i)
		}
		if got := d.Results(); got.LevelHist != want.LevelHist || got.ReadResp != want.ReadResp {
			t.Errorf("device %d diverged: hist %v resp %+v, want %v %+v",
				i, got.LevelHist, got.ReadResp, want.LevelHist, want.ReadResp)
		}
	}
}
