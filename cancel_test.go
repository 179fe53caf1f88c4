package indextune

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// A nil context and a live context.Background must both leave every result
// field byte-identical to each other — the cancellation layer is free until
// the context is actually cancelled — at the sequential and parallel worker
// counts.
func TestTuneContextNilVsBackgroundBitIdentical(t *testing.T) {
	w := Workload("tpch")
	for _, workers := range []int{1, 4} {
		base, err := Tune(w, Options{K: 5, Budget: 120, Seed: 7, SessionWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctxd, err := Tune(w, Options{K: 5, Budget: 120, Seed: 7, SessionWorkers: workers,
			Context: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		// TuningTime and WhatIfTime are derived from the session's own
		// spend, so even those must match exactly.
		if !reflect.DeepEqual(base, ctxd) {
			t.Fatalf("workers=%d: context.Background changed the result:\nnil: %+v\nctx: %+v",
				workers, base, ctxd)
		}
		if base.Cancelled {
			t.Fatalf("workers=%d: never-cancelled run reported Cancelled", workers)
		}
	}
}

// An already-cancelled context terminates the run at the first commit point
// with the early-stop refund semantics: the partial result is still
// returned, and the unspent budget is refunded exactly.
func TestTuneCancelledContextRefundsBudget(t *testing.T) {
	w := Workload("tpch")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []string{AlgorithmMCTS, AlgorithmTwoPhase} {
		res, err := Tune(w, Options{K: 5, Budget: 500, Seed: 1, Algorithm: alg, Context: ctx, CollectTrace: true})
		if err != nil {
			t.Fatalf("%s: cancellation must yield a partial result, not an error: %v", alg, err)
		}
		if !res.Cancelled {
			t.Fatalf("%s: Cancelled not set: %+v", alg, res)
		}
		if res.EarlyStopped {
			t.Fatalf("%s: cancellation misreported as early stop", alg)
		}
		if res.WhatIfCalls+res.RefundedBudget != 500 {
			t.Fatalf("%s: refund invariant broken: used %d + refunded %d != budget 500",
				alg, res.WhatIfCalls, res.RefundedBudget)
		}
		// The cancel event carries the refund the Result reports.
		if res.Trace == nil || res.Trace.RefundedBudget != res.RefundedBudget {
			t.Fatalf("%s: traced refund %+v, want %d", alg, res.Trace, res.RefundedBudget)
		}
		if res.ImprovementPct < 0 {
			t.Fatalf("%s: partial result regressed below baseline: %v", alg, res.ImprovementPct)
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
// Result's Cancelled flag. A context cancelled before the first slice
// refunds the whole budget, and the trace summary still reports that
// budget: the final progress step carries it, while the slice history
// holds no slice.
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
