package core

import (
	"context"
	"errors"
	"testing"

	"flexlevel/internal/trace"
)

// countdownCtx is a context whose Err becomes non-nil after n calls —
// a deterministic stand-in for "cancelled mid-flight" that needs no
// goroutines or timers. Done is never closed; StepBatchCtx polls Err.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestStepBatchCtxCancelsMidFlight is the satellite regression test:
// cancellation must stop the batched event loop between requests, not
// only between runner.Map shards.
func TestStepBatchCtxCancelsMidFlight(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	const admit = 100
	ctx := &countdownCtx{Context: context.Background(), remaining: admit}
	_, err = r.RunRequestsQDCtx(ctx, "cancelled", reqs, 4096, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	// Device counters are per page; the countdown is per request, so the
	// served-page total must stay within the first admit requests' pages.
	var pageBound int64
	for _, req := range reqs[:admit] {
		pageBound += int64(req.Pages)
	}
	res := r.Device().Results()
	if got := res.Reads + res.Writes + res.WritesRejected + res.WriteFailures; got > pageBound {
		t.Fatalf("replay served %d pages after cancellation at request %d (page bound %d)", got, admit, pageBound)
	}
	if res.Reads+res.Writes == 0 {
		t.Fatal("replay stopped before serving anything; wanted a mid-flight stop")
	}
	// The partial run still finishes into a consistent metric set.
	m := r.Finish("cancelled")
	if m.Reads != res.Reads {
		t.Fatalf("Finish reads %d != device reads %d", m.Reads, res.Reads)
	}
}

// TestStepBatchCtxPreCancelled: an already-dead context stops the loop
// before any request is issued.
func TestStepBatchCtxPreCancelled(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Prepare(reqs, 4096); err != nil {
		t.Fatal(err)
	}
	if err := r.StepBatchCtx(ctx, reqs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled replay returned %v", err)
	}
	if res := r.Device().Results(); res.Reads+res.Writes != 0 {
		t.Fatalf("pre-cancelled replay served %d requests", res.Reads+res.Writes)
	}
}

// TestStepBatchCtxNilMatchesLegacy: a nil context replays identically to
// the legacy path (the wrappers delegate, so this guards the refactor).
func TestStepBatchCtxNilMatchesLegacy(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	run := func(ctx context.Context) Metrics {
		r, err := NewRunner(DefaultOptions(Baseline, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.RunRequestsQDCtx(ctx, "legacy", reqs, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(nil), run(context.Background())
	if a.AvgResponse != b.AvgResponse || a.Reads != b.Reads || a.P99Read != b.P99Read {
		t.Fatalf("nil-ctx and Background replays diverge: %+v vs %+v", a, b)
	}
}

// TestShedDoesNotMovePercentiles is the latency-attribution satellite:
// shed and deadline-exceeded requests land in their own counters and
// leave every latency percentile untouched.
func TestShedDoesNotMovePercentiles(t *testing.T) {
	reqs, tenants := tenantTestStream(t)
	run := func(sheds, deadlines int) Metrics {
		r, err := NewRunner(DefaultOptions(FlexLevel, 6000))
		if err != nil {
			t.Fatal(err)
		}
		r.TrackTenants(trace.TenantNames(tenants))
		if err := r.Prepare(reqs, 4096); err != nil {
			t.Fatal(err)
		}
		// Interleave rejections with real traffic the way a server would.
		for i, req := range reqs {
			if _, err := r.StepAt(req, req.Arrival); err != nil {
				t.Fatal(err)
			}
			if i < sheds {
				r.CountShed(req.Tenant)
			}
			if i < deadlines {
				r.CountDeadlineExceeded(req.Tenant)
			}
		}
		return r.Finish("shed")
	}
	clean := run(0, 0)
	shed := run(500, 200)
	if shed.Shed != 500 || shed.DeadlineExceeded != 200 {
		t.Fatalf("counters Shed=%d DeadlineExceeded=%d, want 500/200", shed.Shed, shed.DeadlineExceeded)
	}
	if clean.Shed != 0 || clean.DeadlineExceeded != 0 {
		t.Fatalf("clean run carries rejection counters: %+v", clean)
	}
	if clean.P50Read != shed.P50Read || clean.P95Read != shed.P95Read || clean.P99Read != shed.P99Read {
		t.Fatalf("shedding moved percentiles: clean p50/p95/p99 %g/%g/%g vs shed %g/%g/%g",
			clean.P50Read, clean.P95Read, clean.P99Read, shed.P50Read, shed.P95Read, shed.P99Read)
	}
	if clean.AvgResponse != shed.AvgResponse {
		t.Fatalf("shedding moved the mean: %g vs %g", clean.AvgResponse, shed.AvgResponse)
	}
	var tenantShed, tenantDeadline int64
	for i, tm := range shed.Tenants {
		tenantShed += tm.Shed
		tenantDeadline += tm.DeadlineExceeded
		if tm.P99Read != clean.Tenants[i].P99Read {
			t.Fatalf("tenant %s p99 moved by shedding: %g vs %g",
				tm.Name, tm.P99Read, clean.Tenants[i].P99Read)
		}
	}
	if tenantShed != 500 || tenantDeadline != 200 {
		t.Fatalf("tenant attribution lost rejections: shed %d deadline %d", tenantShed, tenantDeadline)
	}
	// Out-of-range tenant indexes must count runner-wide without panic.
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	r.CountShed(-1)
	r.CountDeadlineExceeded(99)
	if m := r.Finish("stray"); m.Shed != 1 || m.DeadlineExceeded != 1 {
		t.Fatalf("stray-index rejections lost: %+v", m)
	}
}
