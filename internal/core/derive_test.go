package core

import (
	"testing"

	"indextune/internal/search"
	"indextune/internal/trace"
)

// epsSession is the shared fixture session with bound interception enabled.
func epsSession(t *testing.T, budget int, workers int) *search.Session {
	s := session(t, "tpch", 5, budget, 7)
	s.DeriveEpsilon = search.DefaultDeriveEpsilon
	s.Workers = workers
	return s
}

// Interception keeps the search deterministic: with a fixed (seed, workers,
// epsilon), repeated runs produce the same configuration, budget use, and
// charged-call layout — in the one-slot and the four-slot pipeline.
func TestDeriveDeterministicAcrossRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var first string
		for run := 0; run < 3; run++ {
			got := runTrace(t, epsSession(t, 120, workers), Default())
			if run == 0 {
				first = got
				continue
			}
			if got != first {
				t.Fatalf("workers=%d run %d diverged:\n  first: %s\n  got:   %s", workers, run, got, first)
			}
		}
	}
}

// An MCTS run at the default epsilon must actually intercept calls (the
// search revisits nested configurations constantly), and interception must
// never hurt the budget invariant: used ≤ budget, all spend traced.
func TestDeriveInterceptsDuringMCTS(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := epsSession(t, 120, workers)
		rec := trace.New(nil)
		s.Trace = rec
		r := search.Run(Default(), s)
		if r.DerivedBoundHits == 0 {
			t.Fatalf("workers=%d: no derived-bound hits at default epsilon", workers)
		}
		if r.DerivedBoundHits != s.BoundHits() {
			t.Fatalf("workers=%d: result hits %d != session hits %d", workers, r.DerivedBoundHits, s.BoundHits())
		}
		if r.WhatIfCalls > s.Budget {
			t.Fatalf("workers=%d: used %d over budget %d", workers, r.WhatIfCalls, s.Budget)
		}
		sum := rec.Summary(r.Algorithm, s.Budget)
		if sum.SpendTotal() != r.WhatIfCalls {
			t.Fatalf("workers=%d: traced spend %d != WhatIfCalls %d (derived answers must not reserve)",
				workers, sum.SpendTotal(), r.WhatIfCalls)
		}
		if sum.DerivedBoundHits != r.DerivedBoundHits {
			t.Fatalf("workers=%d: traced bound hits %d != result %d", workers, sum.DerivedBoundHits, r.DerivedBoundHits)
		}
	}
}

// Epsilon 0 is the uninstrumented tuner: explicitly setting it must be
// bit-identical to a session that never heard of interception, at Workers=1
// and 4 — the compatibility contract of the feature.
func TestDeriveEpsilonZeroBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runTrace(t, withWorkers(session(t, "tpch", 5, 100, 7), workers), Default())
		s := withWorkers(session(t, "tpch", 5, 100, 7), workers)
		s.DeriveEpsilon = 0
		if got := runTrace(t, s, Default()); got != base {
			t.Fatalf("workers=%d: epsilon 0 diverged:\n  base: %s\n  got:  %s", workers, base, got)
		}
	}
}

// Interception trades bounded cost error for extra search: at equal budget
// the final improvement must stay in the same ballpark as the exact run
// (within a few points), while charging no more calls.
func TestDeriveImprovementComparable(t *testing.T) {
	exact := search.Run(Default(), withWorkers(session(t, "tpch", 5, 120, 7), 1))
	eps := search.Run(Default(), epsSession(t, 120, 1))
	if eps.ImprovementPct < exact.ImprovementPct-5 {
		t.Fatalf("interception degraded improvement: %.2f%% vs %.2f%%", eps.ImprovementPct, exact.ImprovementPct)
	}
	if eps.WhatIfCalls > exact.WhatIfCalls {
		t.Fatalf("interception charged more calls: %d vs %d", eps.WhatIfCalls, exact.WhatIfCalls)
	}
}
