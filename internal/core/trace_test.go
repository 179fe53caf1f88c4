package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"indextune/internal/search"
	"indextune/internal/trace"
)

// TestTracedSpendEqualsWhatIfCalls is the acceptance cross-check of the trace
// layer: for a full MCTS run at Workers=1 and Workers=4 the traced per-phase
// spend counters must sum exactly to Result.WhatIfCalls. This invariant would
// have caught the PR-1 counter-leakage bug mechanically — any charge not
// routed through Reserve (or any double count) breaks the sum.
func TestTracedSpendEqualsWhatIfCalls(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := withWorkers(session(t, "tpch", 5, 120, 7), workers)
		var events bytes.Buffer
		rec := trace.New(&events)
		s.Trace = rec
		r := search.Run(Default(), s)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := rec.Summary(r.Algorithm, s.Budget)
		if sum.SpendTotal() != r.WhatIfCalls {
			t.Fatalf("workers=%d: traced spend %d != WhatIfCalls %d (by phase: %v)",
				workers, sum.SpendTotal(), r.WhatIfCalls, sum.SpendByPhase)
		}
		if sum.TotalSpend != r.WhatIfCalls {
			t.Fatalf("workers=%d: TotalSpend %d != WhatIfCalls %d", workers, sum.TotalSpend, r.WhatIfCalls)
		}
		// The default policy computes Algorithm-4 priors: both phases spent.
		if sum.SpendByPhase[trace.PhasePriors] == 0 || sum.SpendByPhase[trace.PhaseSearch] == 0 {
			t.Fatalf("workers=%d: expected spend in priors and search phases, got %v",
				workers, sum.SpendByPhase)
		}
		if sum.CacheHits != r.CacheHits {
			t.Fatalf("workers=%d: traced cache hits %d != result %d", workers, sum.CacheHits, r.CacheHits)
		}
		// Replaying the event stream must reproduce the same per-phase sums.
		replay := map[trace.Phase]int{}
		phase := trace.Phase("")
		episodes := 0
		sc := bufio.NewScanner(&events)
		for sc.Scan() {
			var e trace.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("workers=%d: bad event line %q: %v", workers, sc.Text(), err)
			}
			switch e.Kind {
			case trace.KindPhase:
				phase = e.Phase
			case trace.KindReserve:
				replay[phase]++
			case trace.KindEpisode:
				episodes++
			}
		}
		total := 0
		for ph, n := range replay {
			total += n
			if n != sum.SpendByPhase[ph] {
				t.Fatalf("workers=%d: replayed %s spend %d != summary %d", workers, ph, n, sum.SpendByPhase[ph])
			}
		}
		if total != r.WhatIfCalls {
			t.Fatalf("workers=%d: replayed spend %d != WhatIfCalls %d", workers, total, r.WhatIfCalls)
		}
		if episodes == 0 {
			t.Fatalf("workers=%d: no episode events in stream", workers)
		}
		// The curve ends at the final point search.Run records, in the same
		// derived-improvement units as the rest of the curve; the oracle
		// number is carried by the summary only.
		if len(sum.Curve) == 0 {
			t.Fatalf("workers=%d: empty improvement-vs-spend curve", workers)
		}
		last := sum.Curve[len(sum.Curve)-1]
		wantImp := 100 * s.Derived.Improvement(r.Config)
		if last.Spend != r.WhatIfCalls || last.ImprovementPct != wantImp {
			t.Fatalf("workers=%d: final curve point %+v, want spend=%d imp=%v",
				workers, last, r.WhatIfCalls, wantImp)
		}
		if sum.OracleImprovementPct != r.ImprovementPct {
			t.Fatalf("workers=%d: summary oracle %v != result %v",
				workers, sum.OracleImprovementPct, r.ImprovementPct)
		}
	}
}

// TestParallelBudgetNeverExceededMidRun pins the satellite fix: with
// Workers=4 pipelining reservations ahead of commits, concurrent readers must
// see Used() <= Budget and Remaining() >= 0 at every step — outstanding
// reservations count as consumed, so the pipeline can never over-reserve
// past B.
func TestParallelBudgetNeverExceededMidRun(t *testing.T) {
	const budget = 150
	s := withWorkers(session(t, "tpch", 5, budget, 11), 4)
	s.Trace = trace.New(nil)

	stop := make(chan struct{})
	var violations int64
	var samples int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				atomic.AddInt64(&samples, 1)
				if s.Used() > budget || s.Remaining() < 0 {
					atomic.AddInt64(&violations, 1)
				}
			}
		}()
	}

	r := search.Run(Default(), s)
	close(stop)
	wg.Wait()

	if v := atomic.LoadInt64(&violations); v != 0 {
		t.Fatalf("%d mid-run budget violations over %d samples", v, atomic.LoadInt64(&samples))
	}
	if r.WhatIfCalls > budget {
		t.Fatalf("final calls %d > budget %d", r.WhatIfCalls, budget)
	}
	if sum := s.Trace.Summary(r.Algorithm, budget); sum.SpendTotal() != r.WhatIfCalls {
		t.Fatalf("traced spend %d != WhatIfCalls %d", sum.SpendTotal(), r.WhatIfCalls)
	}
}
