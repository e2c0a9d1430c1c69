package ssd

import (
	"errors"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
)

// TestWriteFailureChargesOwningChannel is the regression test for the
// GC/migrate cost of an exhausted program retry landing unconditionally
// on channel 0: the flash work must be charged to the channel owning
// the block the FTL attributes the failure to.
func TestWriteFailureChargesOwningChannel(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 4
	var script []fault.ScriptEvent
	for i := int64(0); i < 8; i++ { // > DefaultProgramRetries attempts
		script = append(script, fault.ScriptEvent{Op: fault.Program, Index: i})
	}
	cfg.Faults = fault.Config{Script: script}

	// Twin FTL with an identical injector learns which block the write
	// failure is attributed to (the device swallows the error by design).
	inj, err := fault.New(cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := ftl.New(cfg.FTL)
	if err != nil {
		t.Fatal(err)
	}
	twin.Fault = inj.Fails
	_, _, werr := twin.Write(7, ftl.NormalState)
	if !errors.Is(werr, ftl.ErrWriteFailed) {
		t.Fatalf("twin write error = %v, want ErrWriteFailed", werr)
	}
	block, ok := ftl.FailedBlock(werr)
	if !ok {
		t.Fatal("ErrWriteFailed carries no block attribution")
	}

	d, err := New(cfg, flatBER(0, 0), baseline.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, 7, ftl.NormalState); err != nil {
		t.Fatalf("failed write should degrade gracefully, got %v", err)
	}
	if got := d.Results().WriteFailures; got != 1 {
		t.Fatalf("WriteFailures = %d, want 1", got)
	}
	want := d.channelOf(block)
	if want == 0 {
		t.Fatalf("degenerate vector: failing block %d owned by channel 0", block)
	}
	for i, free := range d.chanFree {
		busy := free > 0
		if busy != (i == want) {
			t.Errorf("channel %d busy=%v; want the cost only on channel %d (owner of block %d)",
				i, busy, want, block)
		}
	}
}

func TestResultsReadPercentiles(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.Oracle{})
	for i := 0; i < 200; i++ {
		d.Read(time.Duration(i)*time.Second, uint64(i%512)) // idle channel: constant resp
	}
	p50, p95, p99 := d.Results().ReadPercentiles()
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles not ordered: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	var empty Results
	if a, b, c := empty.ReadPercentiles(); a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty results percentiles = %g/%g/%g, want zeros", a, b, c)
	}
}
