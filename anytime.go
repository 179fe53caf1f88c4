package indextune

import (
	"context"
	"fmt"
	"io"
	"time"

	"indextune/internal/anytime"
	"indextune/internal/compress"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// AnytimeOptions configure an anytime tuning session (see TuneAnytime).
type AnytimeOptions struct {
	// K is the cardinality constraint (default 10).
	K int
	// TimeBudget is the tuning-time limit.
	TimeBudget time.Duration
	// SliceCalls is the what-if call allowance per slice (default:
	// a tenth of the total, at least 20).
	SliceCalls int
	// MinImprovementPct stops early once reached (0 disables).
	MinImprovementPct float64
	// StopEpsilon enables Esc-style early stopping (see Options.StopEpsilon):
	// a slice whose bound gap falls at or below ε finishes the session and
	// refunds the unspent budget. 0 disables; DefaultStopEpsilon is the
	// CLI default.
	StopEpsilon float64
	// StorageLimitBytes caps total index bytes; 0 disables.
	StorageLimitBytes int64
	// Seed drives randomized decisions.
	Seed int64
	// TraceEvents, when non-nil, receives the session's trace event stream
	// as JSONL and enables trace collection (Result.Trace).
	TraceEvents io.Writer
	// CollectTrace enables summary-only tracing without an event stream.
	CollectTrace bool
	// Context, when non-nil, cancels a running TuneAnytime call: the
	// session's next charged what-if call is refused instead, the session
	// refunds its unspent budget exactly like an early stop, the final
	// AnytimeProgress reports Reason "cancelled", and the Result carries the
	// partial recommendation with the Cancelled flag set. A nil or
	// never-cancelled context changes nothing.
	Context context.Context
}

// AnytimeProgress is the per-slice progress snapshot.
type AnytimeProgress struct {
	Slice          int
	CallsUsed      int
	Budget         int     // total what-if call budget of the session
	BudgetFraction float64 // CallsUsed / Budget; reaches 1.0 when fully spent
	ImprovementPct float64
	Indexes        []Index
	// Reason states why the session finished: "" while running, then one of
	// "early-stop", "cancelled", "budget-exhausted", "saturated", or
	// "min-improvement".
	Reason string
}

// TuneAnytime tunes w with the anytime wrapper: MCTS runs in budget slices
// and onProgress (if non-nil) receives the best-so-far recommendation after
// every slice — the property a user-facing tuning tool needs to support
// cancellation and time budgets (the integration work Section 1 of the
// paper identifies).
func TuneAnytime(w *WorkloadSet, opts AnytimeOptions, onProgress func(AnytimeProgress)) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("indextune: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	if err := search.CheckEpsilon("StopEpsilon", opts.StopEpsilon); err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	var rec *trace.Recorder
	if opts.TraceEvents != nil || opts.CollectTrace {
		rec = trace.New(opts.TraceEvents)
	}
	sess := anytime.New(w, anytime.Options{
		K:                 opts.K,
		TimeBudget:        opts.TimeBudget,
		SliceCalls:        opts.SliceCalls,
		MinImprovementPct: opts.MinImprovementPct,
		StopEpsilon:       opts.StopEpsilon,
		StorageLimit:      opts.StorageLimitBytes,
		Seed:              opts.Seed,
		Trace:             rec,
		Ctx:               opts.Context,
	})
	// The last progress step carries the final spend and budget: the
	// session's history skips a step that finishes before any slice runs.
	var p anytime.Progress
	for done := false; !done; {
		p, done = sess.Step()
		if onProgress != nil {
			onProgress(AnytimeProgress{
				Slice:          p.Slice,
				CallsUsed:      p.CallsUsed,
				Budget:         p.Budget,
				BudgetFraction: p.BudgetFraction,
				ImprovementPct: p.ImprovementPct,
				Indexes:        sess.IndexesOf(p.Config),
				Reason:         p.Reason,
			})
		}
	}
	best := sess.Refine()
	res := &Result{
		Indexes:        sess.IndexesOf(best),
		ImprovementPct: sess.OracleImprovementPct(),
		WhatIfCalls:    p.CallsUsed,
		Algorithm:      "MCTS (anytime)",
		EarlyStopped:   sess.Stopped(),
		Cancelled:      sess.Cancelled(),
		StopGap:        sess.StopGap(),
		RefundedBudget: sess.RefundedBudget(),
	}
	if rec != nil {
		// The curve stays in derived-improvement units end to end; the
		// oracle number is carried by the summary only.
		rec.Point(p.CallsUsed, sess.DerivedImprovementPct())
		rec.Oracle(res.ImprovementPct)
		if err := rec.Flush(); err != nil {
			return nil, fmt.Errorf("indextune: writing trace events: %w", err)
		}
		sum := rec.Summary(res.Algorithm, p.Budget)
		res.Trace = &sum
	}
	return res, nil
}

// CompressionResult describes a workload compression outcome.
type CompressionResult struct {
	// Workload is the compressed workload (weighted representatives).
	Workload *WorkloadSet
	// Templates is the number of distinct templates found.
	Templates int
	// Ratio is |original| / |compressed|.
	Ratio float64
}

// CompressWorkload reduces a multi-instance workload to weighted template
// representatives before tuning (the step the paper defers multi-instance
// workloads to).
func CompressWorkload(w *WorkloadSet, maxQueries int) (*CompressionResult, error) {
	res, err := compress.Compress(w, compress.Options{MaxQueries: maxQueries})
	if err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	return &CompressionResult{
		Workload:  res.Workload,
		Templates: res.Templates,
		Ratio:     res.CompressionRatio(w),
	}, nil
}

// InstantiateWorkload expands w into n instances per query with jittered
// predicate selectivities — a synthetic multi-instance workload for
// compression and tuning experiments.
func InstantiateWorkload(w *WorkloadSet, n int, seed int64) *WorkloadSet {
	return workload.Instantiate(w, n, seed)
}

// LoadWorkloadJSON reads a workload (schema + queries) from the JSON format
// written by WorkloadSet.WriteJSON; see cmd/workloadgen -json for producing
// files in this format.
func LoadWorkloadJSON(r io.Reader) (*WorkloadSet, error) {
	return workload.ReadJSON(r)
}

// PlanQuery returns the optimizer's structured plan for q under the given
// indexes (JSON-serializable; see Plan).
func PlanQuery(w *WorkloadSet, q *Query, indexes []Index) *Plan {
	opt := whatif.New(w.DB, indexes)
	full := iset.NewSet(len(indexes))
	for i := range indexes {
		full.Add(i)
	}
	return opt.Plan(q, full)
}
