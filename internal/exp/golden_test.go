package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flexlevel/internal/runner"
)

// update rewrites the golden files from the current output:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSim is the fixed configuration every golden file is generated
// with. Requests is kept small so the reliability sweep stays fast; the
// seed pins workload generation and all per-shard derived seeds.
func goldenSim() SimConfig {
	return SimConfig{Requests: 4000, Seed: 1, PE: 6000}
}

// checkGolden compares got against testdata/golden/<name>, rewriting
// the file when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update if intended)\n got: %q\nwant: %q",
			name, got, want)
	}
}

// goldenSweep runs one sweep at several worker counts, asserts the CSV
// output is byte-identical across all of them, and checks the serial
// bytes against the golden file. This is the determinism contract of
// internal/runner made executable: results depend only on the master
// seed, never on scheduling.
func goldenSweep(t *testing.T, name string, sweep func(cfg SimConfig) ([]byte, error)) {
	t.Helper()
	var serial []byte
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := goldenSim()
		cfg.Parallel = workers
		got, err := sweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			serial = got
			continue
		}
		if !bytes.Equal(got, serial) {
			t.Errorf("%s: parallel=%d output differs from serial\n got: %q\nwant: %q",
				name, workers, got, serial)
		}
	}
	checkGolden(t, name, serial)
}

func TestGoldenFig5(t *testing.T) {
	goldenSweep(t, "fig5.csv", func(cfg SimConfig) ([]byte, error) {
		rows, err := Fig5(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteFig5CSV(&buf, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

func TestGoldenTable4(t *testing.T) {
	goldenSweep(t, "table4.csv", func(cfg SimConfig) ([]byte, error) {
		cells, err := Table4(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteTable4CSV(&buf, cells); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// TestGoldenFig6a pins the paper's headline grid (Fig. 6(a)) and the
// endurance table derived from it (Fig. 7): one sweep feeds both CSVs.
func TestGoldenFig6a(t *testing.T) {
	var fig7 []byte
	goldenSweep(t, "fig6a.csv", func(cfg SimConfig) ([]byte, error) {
		data, err := Fig6a(cfg)
		if err != nil {
			return nil, err
		}
		var buf, buf7 bytes.Buffer
		if err := WriteFig6aCSV(&buf, data); err != nil {
			return nil, err
		}
		if err := WriteFig7CSV(&buf7, Fig7(data)); err != nil {
			return nil, err
		}
		if fig7 != nil && !bytes.Equal(buf7.Bytes(), fig7) {
			t.Errorf("fig7.csv: parallel=%d output differs from serial", cfg.Parallel)
		}
		fig7 = buf7.Bytes()
		return buf.Bytes(), nil
	})
	checkGolden(t, "fig7.csv", fig7)
}

func TestGoldenReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is slow")
	}
	goldenSweep(t, "reliability.csv", func(cfg SimConfig) ([]byte, error) {
		rows, err := Reliability(cfg, []float64{0, 1})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteReliabilityCSV(&buf, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// TestGoldenReliabilityRoundTrip pins the CSV reader to the writer: the
// golden file must parse back into rows that re-serialize to the same
// bytes.
func TestGoldenReliabilityRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "reliability.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := ReadReliabilityCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReliabilityCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("reliability CSV does not round-trip through ReadReliabilityCSV")
	}
}

// TestReliabilityParallelSpeedup asserts the acceptance criterion: on a
// machine with at least 8 cores, the parallel reliability sweep reports
// >= 3x wall-clock speedup over the summed shard time in its JSON
// summary. Skipped on smaller machines where the engine cannot win.
func TestReliabilityParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is slow")
	}
	if n := runtime.GOMAXPROCS(0); n < 8 {
		t.Skipf("need >= 8 cores for the speedup bound, have %d", n)
	}
	var summary *runner.Summary
	cfg := SimConfig{Requests: 8000, Seed: 1, PE: 6000, Parallel: 8,
		OnSummary: func(s *runner.Summary) { summary = s }}
	if _, err := Reliability(cfg, []float64{0, 0.25, 1, 4}); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("engine emitted no summary")
	}
	var buf bytes.Buffer
	if err := summary.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("summary: %s", buf.String())
	if summary.Speedup < 3 {
		t.Errorf("parallel speedup %.2fx, want >= 3x (summary %s)",
			summary.Speedup, buf.String())
	}
}

// TestSummaryEmitted checks every converted sweep reports through the
// engine with its expected name and a consistent shard count.
func TestSummaryEmitted(t *testing.T) {
	seen := map[string]int{}
	cfg := goldenSim()
	cfg.OnSummary = func(s *runner.Summary) { seen[s.Name] = s.Shards }
	if _, err := Fig5(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Table4(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RetentionShares(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := HardECCStudy(cfg); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"fig5":     4,
		"table4":   len(PEPoints),
		"retshare": len(PEPoints) * len(RetentionTimes),
		"hardecc":  3,
	}
	for name, shards := range want {
		if seen[name] != shards {
			t.Errorf("sweep %s: %d shards in summary, want %d (seen: %v)",
				name, seen[name], shards, seen)
		}
	}
}
