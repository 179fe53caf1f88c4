package indextune

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// A NaN, infinite or negative epsilon is refused before anything runs: a
// NaN derive tolerance would answer every pair from bounds, and a NaN stop
// tolerance would probe every floor and never stop.
func TestTuneRejectsBadEpsilons(t *testing.T) {
	w := Workload("tpch")
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		for name, opts := range map[string]Options{
			"DeriveEpsilon": {Budget: 50, DeriveEpsilon: eps},
			"StopEpsilon":   {Budget: 50, StopEpsilon: eps},
		} {
			if _, err := Tune(w, opts); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("Tune with %s %v: err %v, want one naming %s", name, eps, err, name)
			}
		}
		if _, err := TuneAnytime(w, AnytimeOptions{StopEpsilon: eps}, nil); err == nil {
			t.Fatalf("TuneAnytime with StopEpsilon %v: no error", eps)
		}
	}
}

// synthStopWorkload builds a small random workload for the early-stopping
// property tests; seeds vary the schema, query shapes, and costs.
func synthStopWorkload(t *testing.T, seed int64) *WorkloadSet {
	t.Helper()
	w, err := Synthesize(SynthSpec{
		Name:       fmt.Sprintf("stop-%d", seed),
		Seed:       seed,
		NumTables:  8,
		NumQueries: 12,
		ScansMean:  2.5, ScansJitter: 1,
		FiltersMean: 1.5,
		TablePool:   8,
		RowsMin:     10_000, RowsMax: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStopEpsilonSoundness is the satellite property test: across random
// workloads, seeds, and enumerators, a StopEpsilon-terminated run must land
// within epsilon (in baseline-cost fraction, i.e. 100·ε improvement points)
// of the same-seed run that spent its whole budget — the gap is an upper
// bound on what the stopped run left on the table. Extraction noise gets a
// small additional slack: the bound constrains configurations, not the
// oracle's opinion of two near-tied ones.
func TestStopEpsilonSoundness(t *testing.T) {
	const eps = 0.05
	const slack = 0.02
	algs := []Options{
		{Algorithm: AlgorithmTwoPhase},
		{Algorithm: AlgorithmAutoAdmin},
		{Algorithm: AlgorithmMCTS, MCTS: &MCTSOptions{Extraction: "hybrid"}},
	}
	for _, wseed := range []int64{11, 37} {
		w := synthStopWorkload(t, wseed)
		for _, base := range algs {
			base := base
			name := fmt.Sprintf("w%d/%s", wseed, base.Algorithm)
			t.Run(name, func(t *testing.T) {
				base.K = 5
				base.Budget = 600
				base.Seed = 9
				full, err := Tune(w, base)
				if err != nil {
					t.Fatal(err)
				}
				stopped := base
				stopped.StopEpsilon = eps
				res, err := Tune(w, stopped)
				if err != nil {
					t.Fatal(err)
				}
				// The floor probes cost at most one call per query; when the
				// rule never fires on an under-spending run (auto-admin can
				// leave budget unspent), that overhead is the worst case.
				if res.WhatIfCalls > full.WhatIfCalls+len(w.Queries) {
					t.Fatalf("stopping charged more calls than probes explain: %d > %d+%d",
						res.WhatIfCalls, full.WhatIfCalls, len(w.Queries))
				}
				if res.ImprovementPct < full.ImprovementPct-100*(eps+slack) {
					t.Fatalf("stopped improvement %.3f%% fell more than 100·(ε+slack) below full run %.3f%%",
						res.ImprovementPct, full.ImprovementPct)
				}
				if res.EarlyStopped {
					if res.WhatIfCalls+res.RefundedBudget != base.Budget {
						t.Fatalf("refund accounting: calls %d + refund %d != budget %d",
							res.WhatIfCalls, res.RefundedBudget, base.Budget)
					}
					if res.StopGap < 0 || res.StopGap > eps {
						t.Fatalf("StopGap = %v, want within (0, ε=%v]", res.StopGap, eps)
					}
				} else if res.RefundedBudget != 0 || res.StopGap != 0 {
					t.Fatalf("un-stopped run reports refund %d gap %v", res.RefundedBudget, res.StopGap)
				}
			})
		}
	}
}

// TestStopEpsilonZeroBitIdentical: StopEpsilon = 0 takes no new code path,
// so results are bit-identical to a default-options run at Workers = 1 and
// 4, nothing is ever reported stopped, and the traced spend still equals
// the charged calls.
func TestStopEpsilonZeroBitIdentical(t *testing.T) {
	w := Workload("tpch")
	for _, workers := range []int{1, 4} {
		plain, err := Tune(w, Options{K: 5, Budget: 150, Seed: 3, SessionWorkers: workers, CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := Tune(w, Options{K: 5, Budget: 150, Seed: 3, SessionWorkers: workers, StopEpsilon: 0, CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.ImprovementPct != zero.ImprovementPct || plain.WhatIfCalls != zero.WhatIfCalls {
			t.Fatalf("workers=%d: eps=0 diverged: (%v, %d) vs (%v, %d)", workers,
				plain.ImprovementPct, plain.WhatIfCalls, zero.ImprovementPct, zero.WhatIfCalls)
		}
		if len(plain.Indexes) != len(zero.Indexes) {
			t.Fatalf("workers=%d: eps=0 changed the recommendation size", workers)
		}
		for i := range plain.Indexes {
			if plain.Indexes[i].ID() != zero.Indexes[i].ID() {
				t.Fatalf("workers=%d: eps=0 changed index %d", workers, i)
			}
		}
		if zero.EarlyStopped || zero.RefundedBudget != 0 {
			t.Fatalf("workers=%d: eps=0 reported a stop", workers)
		}
		if zero.Trace.SpendTotal() != zero.WhatIfCalls {
			t.Fatalf("workers=%d: traced spend %d != calls %d", workers,
				zero.Trace.SpendTotal(), zero.WhatIfCalls)
		}
	}
}

// TestStopSpendInvariantWithRefunds: with stopping enabled the per-phase
// traced spend must still sum exactly to the charged calls — floor probes
// are ordinary charged spend, and the refund never appears as negative
// spend anywhere.
func TestStopSpendInvariantWithRefunds(t *testing.T) {
	w := Workload("tpch")
	for _, workers := range []int{1, 4} {
		for _, alg := range []string{AlgorithmTwoPhase, AlgorithmMCTS} {
			res, err := Tune(w, Options{
				K: 5, Budget: 400, Seed: 3, Algorithm: alg,
				SessionWorkers: workers, StopEpsilon: 0.2, CollectTrace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace.SpendTotal() != res.WhatIfCalls {
				t.Fatalf("%s workers=%d: traced spend %d != charged calls %d",
					alg, workers, res.Trace.SpendTotal(), res.WhatIfCalls)
			}
			if res.EarlyStopped {
				if res.WhatIfCalls+res.RefundedBudget != 400 {
					t.Fatalf("%s workers=%d: calls %d + refund %d != budget",
						alg, workers, res.WhatIfCalls, res.RefundedBudget)
				}
				if res.Trace.EarlyStops != 1 {
					t.Fatalf("%s workers=%d: EarlyStops = %d, want 1",
						alg, workers, res.Trace.EarlyStops)
				}
			}
		}
	}
}

// An anytime run that stops inside a slice reports the session's refund in
// its trace summary, not the refund against the slice-narrowed budget the
// stop event carries.
func TestStopAnytimeTraceRefund(t *testing.T) {
	w := Workload("tpch")
	res, err := TuneAnytime(w, AnytimeOptions{
		K: 10, TimeBudget: 25 * time.Minute, StopEpsilon: 0.1, Seed: 1, CollectTrace: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatalf("run did not stop early: %+v", res)
	}
	if res.Trace.RefundedBudget != res.RefundedBudget {
		t.Fatalf("traced refund %d != refund %d", res.Trace.RefundedBudget, res.RefundedBudget)
	}
	if res.Trace.TotalSpend+res.Trace.RefundedBudget != res.Trace.Budget {
		t.Fatalf("traced spend %d + refund %d != budget %d",
			res.Trace.TotalSpend, res.Trace.RefundedBudget, res.Trace.Budget)
	}
}
