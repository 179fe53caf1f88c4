package indextune

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"indextune/internal/core"
)

// dpTinyWorkload is a workload whose candidate universe fits the DP
// solver's exact enumeration.
func dpTinyWorkload(t *testing.T) *WorkloadSet {
	t.Helper()
	w, err := Synthesize(SynthSpec{Name: "dp-tiny", Seed: 5, NumTables: 4, NumQueries: 3,
		ScansMean: 2, FiltersMean: 1, RowsMin: 200_000, RowsMax: 2_000_000, PayloadMin: 80, PayloadMax: 160})
	if err != nil {
		t.Fatal(err)
	}
	if ixs, _ := GenerateCandidates(w); len(ixs) > core.MaxDPCandidates {
		t.Fatalf("dp universe %d exceeds %d: the exact solver would not run", len(ixs), core.MaxDPCandidates)
	}
	return w
}

// A nil context and a live context.Background must leave every registered
// algorithm's result and JSONL trace event stream byte-identical to each
// other — the cancellation layer is free until the context is actually
// cancelled — at the sequential and parallel worker counts. DP runs on a
// universe small enough for its exact solver rather than its fallback.
func TestTuneContextNilVsBackgroundBitIdentical(t *testing.T) {
	tpch := Workload("tpch")
	tiny := dpTinyWorkload(t)
	for _, alg := range Algorithms() {
		w := tpch
		if alg == AlgorithmDP {
			w = tiny
		}
		for _, workers := range []int{1, 4} {
			run := func(ctx context.Context) (*Result, []byte) {
				var events bytes.Buffer
				res, err := Tune(w, Options{K: 5, Budget: 120, Seed: 7, Algorithm: alg,
					SessionWorkers: workers, Context: ctx, TraceEvents: &events})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", alg, workers, err)
				}
				return res, events.Bytes()
			}
			base, baseEvents := run(nil)
			ctxd, ctxdEvents := run(context.Background())
			// TuningTime and WhatIfTime are derived from the session's own
			// spend, so even those must match exactly.
			if !reflect.DeepEqual(base, ctxd) {
				t.Fatalf("%s workers=%d: context.Background changed the result:\nnil: %+v\nctx: %+v",
					alg, workers, base, ctxd)
			}
			if !bytes.Equal(baseEvents, ctxdEvents) {
				t.Fatalf("%s workers=%d: context.Background changed the trace event stream", alg, workers)
			}
			if base.Cancelled {
				t.Fatalf("%s workers=%d: never-cancelled run reported Cancelled", alg, workers)
			}
		}
	}
}

// An already-cancelled context is observed at every algorithm's first
// charge attempt: the run charges nothing, refunds its whole budget, records
// exactly one cancel event carrying that refund, and still returns a
// partial result. DP runs on a universe small enough for its exact solver,
// which charges (its fallback spends nothing, so it never sees a cancel).
func TestTuneCancelledContextRefundsBudget(t *testing.T) {
	tpch := Workload("tpch")
	tiny := dpTinyWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range Algorithms() {
		w := tpch
		if alg == AlgorithmDP {
			w = tiny
		}
		for _, workers := range []int{1, 4} {
			res, err := Tune(w, Options{K: 5, Budget: 500, Seed: 1, Algorithm: alg,
				SessionWorkers: workers, Context: ctx, CollectTrace: true})
			if err != nil {
				t.Fatalf("%s: cancellation must yield a partial result, not an error: %v", alg, err)
			}
			if !res.Cancelled || res.EarlyStopped {
				t.Fatalf("%s workers=%d: Cancelled=%v EarlyStopped=%v, want a cancel", alg, workers,
					res.Cancelled, res.EarlyStopped)
			}
			if res.WhatIfCalls != 0 || res.RefundedBudget != 500 {
				t.Fatalf("%s workers=%d: charged %d and refunded %d, want 0 and 500", alg, workers,
					res.WhatIfCalls, res.RefundedBudget)
			}
			if res.Trace == nil || res.Trace.Cancellations != 1 || res.Trace.RefundedBudget != res.RefundedBudget {
				t.Fatalf("%s workers=%d: trace %+v, want one cancel refunding %d", alg, workers,
					res.Trace, res.RefundedBudget)
			}
			if res.ImprovementPct < 0 {
				t.Fatalf("%s workers=%d: partial result regressed below baseline: %v", alg, workers, res.ImprovementPct)
			}
		}
	}
}

// Cancelling mid-run (after some spend) must keep the refund exact and the
// partial recommendation valid.
func TestTuneCancelMidRun(t *testing.T) {
	w := Workload("tpch")
	ctx, cancel := context.WithCancel(context.Background())
	// The budget is far larger than 30ms of tuning can spend, so the cancel
	// lands mid-run; if a fast machine finishes anyway the test skips down
	// to the pre-cancelled coverage.
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := Tune(w, Options{K: 8, Budget: 200000, Seed: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Skip("run finished before the cancellation landed; invariant covered by the pre-cancelled test")
	}
	if res.WhatIfCalls+res.RefundedBudget != 200000 {
		t.Fatalf("refund invariant broken: used %d + refunded %d != budget 200000",
			res.WhatIfCalls, res.RefundedBudget)
	}
	for _, ix := range res.Indexes {
		if err := ix.Validate(w.DB); err != nil {
			t.Fatalf("partial recommendation invalid: %v", err)
		}
	}
}

// The anytime wrapper reports cancellation through Progress.Reason and the
// Result's Cancelled flag. A context cancelled before the first slice is
// observed by that slice's first charge attempt and refunds the whole
// budget; the trace summary reports the session's full budget and refund,
// not the slice-narrowed refund the cancel event carries.
func TestTuneAnytimeCancelled(t *testing.T) {
	w := Workload("tpch")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last AnytimeProgress
	res, err := TuneAnytime(w, AnytimeOptions{
		K: 5, TimeBudget: 300 * time.Second, Seed: 1, Context: ctx, CollectTrace: true,
	}, func(p AnytimeProgress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("Cancelled not set: %+v", res)
	}
	if last.Reason != "cancelled" {
		t.Fatalf("final progress reason = %q, want cancelled", last.Reason)
	}
	if res.RefundedBudget == 0 || res.Trace == nil {
		t.Fatalf("nothing refunded or no trace: %+v", res)
	}
	if res.Trace.Budget != res.WhatIfCalls+res.RefundedBudget {
		t.Fatalf("trace budget %d != whatif calls %d + refunded %d",
			res.Trace.Budget, res.WhatIfCalls, res.RefundedBudget)
	}
	if res.Trace.RefundedBudget != res.RefundedBudget {
		t.Fatalf("traced refund %d != refund %d", res.Trace.RefundedBudget, res.RefundedBudget)
	}
}

// TuneAnytime with a live context behaves exactly like a nil one.
func TestTuneAnytimeContextBackgroundIdentical(t *testing.T) {
	w := Workload("tpch")
	run := func(ctx context.Context) *Result {
		res, err := TuneAnytime(w, AnytimeOptions{
			K: 5, TimeBudget: 60 * time.Second, Seed: 4, Context: ctx,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run(context.Background())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("context.Background changed the anytime result:\nnil: %+v\nctx: %+v", a, b)
	}
}
