package search

import (
	"testing"

	"indextune/internal/iset"
	"indextune/internal/trace"
	"indextune/internal/workload"

	"indextune/internal/candgen"
)

// seedTightBounds records entries around cfg = {1,2} for query 0 so its
// derived bounds have relative gap (hi−lo)/hi = 0.02: a subset at cost 100
// and a superset at cost 98.
func seedTightBounds(s *Session) (cfg iset.Set, mid float64) {
	s.Derived.Record(0, iset.FromOrdinals(1), 100)
	s.Derived.Record(0, iset.FromOrdinals(1, 2, 3), 98)
	return iset.FromOrdinals(1, 2), 99
}

// newCountingSession returns a test session with a summary-only recorder
// attached, so checkAccounting can count its commit events.
func newCountingSession(t *testing.T, budget int) *Session {
	s := newTestSession(t, budget)
	s.Trace = trace.New(nil)
	return s
}

// checkAccounting asserts the session's bound hits, charged calls, commit
// events, and query 0's derived-store entry count.
func checkAccounting(t *testing.T, s *Session, boundHits int64, used, commits, entries int) {
	t.Helper()
	got := s.Trace.Summary("", 0).Commits
	if s.BoundHits() != boundHits || s.Used() != used || got != int64(commits) || s.Derived.Entries(0) != entries {
		t.Fatalf("boundHits=%d used=%d commits=%d entries=%d, want %d/%d/%d/%d",
			s.BoundHits(), s.Used(), got, s.Derived.Entries(0), boundHits, used, commits, entries)
	}
}

func TestWhatIfBoundDisabledByDefault(t *testing.T) {
	s := newCountingSession(t, 10)
	cfg, _ := seedTightBounds(s)
	entries := s.Derived.Entries(0)
	// At DeriveEpsilon = 0 tight bounds are ignored: the call is charged,
	// committed, and recorded.
	s.WhatIf(0, cfg)
	checkAccounting(t, s, 0, 1, 1, entries+1)
}

func TestWhatIfBoundAnswersFromMidpoint(t *testing.T) {
	s := newCountingSession(t, 10)
	s.DeriveEpsilon = 0.05
	cfg, mid := seedTightBounds(s)
	entries := s.Derived.Entries(0)
	if c, _ := s.WhatIf(0, cfg); c != mid {
		t.Fatalf("WhatIf = %v, want the bound midpoint %v", c, mid)
	}
	// Interception is budget-free and records nothing: the derived store must
	// keep only true what-if costs, the commit events only charged calls.
	checkAccounting(t, s, 1, 0, 0, entries)
	// The pair stays unseen, so a repeat is intercepted again.
	if c, _ := s.WhatIf(0, cfg); c != mid {
		t.Fatalf("repeat WhatIf = %v, want the bound midpoint %v", c, mid)
	}
	checkAccounting(t, s, 2, 0, 0, entries)
}

func TestWhatIfBoundRespectsEpsilon(t *testing.T) {
	s := newCountingSession(t, 10)
	s.DeriveEpsilon = 0.01 // gap 0.02 > ε: must not fire
	cfg, _ := seedTightBounds(s)
	entries := s.Derived.Entries(0)
	s.WhatIf(0, cfg)
	checkAccounting(t, s, 0, 1, 1, entries+1)
	// Without any recorded superset, lo = 0 and the gap is maximal: a fresh
	// pair can never be intercepted (for ε < 1).
	s.DeriveEpsilon = 0.5
	s.WhatIf(3, iset.FromOrdinals(9))
	checkAccounting(t, s, 0, 2, 2, entries+1)
}

// Seen pairs are answered exactly (session cache), never from bounds — the
// interception must not degrade costs the session already knows.
func TestSeenPairsBypassInterception(t *testing.T) {
	s := newTestSession(t, 10)
	s.DeriveEpsilon = 0.05
	cfg := iset.FromOrdinals(1, 2)
	exact, ok := s.WhatIf(0, cfg)
	if !ok {
		t.Fatal("charge failed")
	}
	// Tight bounds around a different midpoint would now be derivable, but
	// the seen-pair check must win.
	s.Derived.Record(0, iset.FromOrdinals(1, 2, 3, 4), exact*0.99)
	c, ok := s.WhatIf(0, cfg)
	if !ok || c != exact {
		t.Fatalf("repeat = (%v, %v), want exact (%v, true)", c, ok, exact)
	}
	if s.CacheHits() != 1 {
		t.Fatalf("cacheHits = %d, want 1", s.CacheHits())
	}
}

// With interception on, the seen-pair accounting switches to projected keys:
// configurations differing only in indexes irrelevant to the query are one
// charge; at epsilon 0 they remain two (the historical accounting).
func TestProjectedSeenKeysOnlyWithEpsilon(t *testing.T) {
	for _, eps := range []float64{0, 0.05} {
		s := newTestSession(t, 10)
		s.DeriveEpsilon = eps
		q0 := s.W.Queries[0]
		rel := s.Opt.Relevance(q0)
		irrelevant := -1
		for i := 0; i < s.NumCandidates(); i++ {
			if !rel.Has(i) {
				irrelevant = i
				break
			}
		}
		if irrelevant < 0 {
			t.Skip("no irrelevant candidate for q0")
		}
		relevant := rel.Ordinals()[0]
		a := iset.FromOrdinals(relevant)
		b := a.With(irrelevant)
		ca, _ := s.WhatIf(0, a)
		cb, _ := s.WhatIf(0, b)
		if ca != cb {
			t.Fatalf("eps=%v: projection-equal configs disagree: %v vs %v", eps, ca, cb)
		}
		wantUsed := 2
		if eps > 0 {
			wantUsed = 1
		}
		if s.Used() != wantUsed {
			t.Fatalf("eps=%v: used = %d, want %d", eps, s.Used(), wantUsed)
		}
	}
}

// sweep charges one batch of (query, cfg) pairs over the whole workload,
// evaluated across workers, and returns the weighted total.
func sweep(s *Session, cfg iset.Set, workers int) float64 {
	b := &Batch{}
	for qi := range s.W.Queries {
		b.Add(qi, cfg)
	}
	s.ReserveBatch(b)
	s.EvaluateReservedBatch(b, workers)
	s.CommitReservedBatch(b)
	t := 0.0
	for qi := range s.W.Queries {
		t += b.Cost(qi) * s.W.Queries[qi].EffectiveWeight()
	}
	return t
}

// EvaluateReservedBatch's fan-out must agree exactly with one worker under
// interception: same totals, same budget, same cache and bound hits.
func TestEvaluateReservedBatchWorkersMatchSequentialWithEpsilon(t *testing.T) {
	w, err := workload.Synthesize(workload.SynthSpec{
		Name: "wide", Seed: 3,
		NumTables: 10, NumQueries: 128,
		ScansMean: 2.5, ScansJitter: 1, FiltersMean: 2,
		ExtraScan: 0.2, TablePool: 8,
		RowsMin: 10_000, RowsMax: 1_000_000,
		PayloadMin: 16, PayloadMax: 80,
		HotTables: 3, HotProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cands := candgen.Generate(w, candgen.Options{})
	newS := func() *Session {
		s := NewSession(w, cands, NewOptimizer(w, cands), 5, 150, 1)
		s.DeriveEpsilon = 0.05
		return s
	}
	cfgs := []iset.Set{
		iset.FromOrdinals(0),
		iset.FromOrdinals(1, 2),
		iset.FromOrdinals(0, 3),
		iset.FromOrdinals(1, 2), // repeat: session cache
		iset.FromOrdinals(2),    // subset of an evaluated config: bounds may fire
	}
	par, seq := newS(), newS()
	for _, cfg := range cfgs {
		if tp, ts := sweep(par, cfg, 4), sweep(seq, cfg, 1); tp != ts {
			t.Fatalf("cfg %v: 4 workers %v != 1 worker %v", cfg, tp, ts)
		}
	}
	if par.Used() != seq.Used() || par.CacheHits() != seq.CacheHits() || par.BoundHits() != seq.BoundHits() {
		t.Fatalf("accounting diverged: 4 workers used=%d hits=%d bounds=%d, 1 worker used=%d hits=%d bounds=%d",
			par.Used(), par.CacheHits(), par.BoundHits(),
			seq.Used(), seq.CacheHits(), seq.BoundHits())
	}
	if par.BoundHits() == 0 {
		t.Fatal("expected at least one bound interception in this scenario")
	}
}

// Derived-bound events carry no spend: the traced per-phase spend still sums
// exactly to the budget used, and the hits surface in the summary.
func TestDerivedBoundTraceEvents(t *testing.T) {
	s := newTestSession(t, 10)
	s.DeriveEpsilon = 0.05
	rec := trace.New(nil)
	s.Trace = rec
	cfg, _ := seedTightBounds(s)
	s.WhatIf(0, cfg)                  // intercepted
	s.WhatIf(1, iset.FromOrdinals(5)) // charged
	sum := rec.Summary("test", s.Budget)
	if sum.DerivedBoundHits != 1 {
		t.Fatalf("summary DerivedBoundHits = %d, want 1", sum.DerivedBoundHits)
	}
	if sum.SpendTotal() != s.Used() {
		t.Fatalf("traced spend %d != used %d", sum.SpendTotal(), s.Used())
	}
}
