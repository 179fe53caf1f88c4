package core

import (
	"math"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/workload"
)

// runCheckingExtractions runs m on s and asserts, at every Best-Greedy
// extraction — each early-stop check and the final one — that the memoized
// extractor returns exactly the configuration and cost bits of a
// from-scratch derived-only greedy on the store as it is at that call. It
// returns the final configuration and the number of extractions.
func runCheckingExtractions(t *testing.T, s *search.Session, m MCTS) (iset.Set, int) {
	t.Helper()
	queries := make([]int, len(s.W.Queries))
	for i := range queries {
		queries[i] = i
	}
	cands := make([]int, s.NumCandidates())
	for i := range cands {
		cands[i] = i
	}
	tn := m.newTuner(s)
	calls := 0
	tn.extracted = func(cfg iset.Set, c float64) {
		calls++
		want, wantC := greedy.Search(s, queries, cands, iset.Set{}, s.K, greedy.EvalDerived)
		if !cfg.Equal(want) || math.Float64bits(c) != math.Float64bits(wantC) {
			t.Fatalf("extraction %d (used %d): memoized %v cost %v (%#x), from scratch %v cost %v (%#x)",
				calls, s.Used(), cfg.Ordinals(), c, math.Float64bits(c), want.Ordinals(), wantC, math.Float64bits(wantC))
		}
	}
	return tn.enumerate(), calls
}

// The memoized extraction is exact across MCTS runs with early stopping
// armed: several workloads and seeds, both pipeline shapes, a small and
// the default cardinality.
func TestExtractorMatchesSearch(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, wl := range []string{"tpch", "real-d", "job"} {
		w := workload.ByName(wl)
		cands := candgen.Generate(w, candgen.Options{})
		opt := search.NewOptimizer(w, cands)
		for _, seed := range seeds {
			for _, workers := range []int{1, 4} {
				for _, k := range []int{3, 10} {
					s := withWorkers(search.NewSession(w, cands, opt, k, 800, seed), workers)
					s.StopEpsilon = search.DefaultStopEpsilon
					if _, calls := runCheckingExtractions(t, s, Default()); calls < 3 {
						t.Fatalf("%s seed %d workers %d K %d: %d extractions, want several memo refreshes",
							wl, seed, workers, k, calls)
					}
				}
			}
		}
	}
}

// A storage limit tighter than the unconstrained extraction's footprint
// makes FitsStorage prune candidates at the memoized steps.
func TestExtractorMatchesSearchUnderStorageLimit(t *testing.T) {
	free := session(t, "tpch", 10, 800, 3)
	free.StopEpsilon = search.DefaultStopEpsilon
	unconstrained, _ := runCheckingExtractions(t, free, Default())
	limit := free.ConfigSizeBytes(unconstrained) / 3

	s := session(t, "tpch", 10, 800, 3)
	s.StopEpsilon = search.DefaultStopEpsilon
	s.StorageLimit = limit
	cfg, calls := runCheckingExtractions(t, s, Default())
	if calls < 3 {
		t.Fatalf("%d extractions, want several memo refreshes", calls)
	}
	if size := s.ConfigSizeBytes(cfg); size > limit {
		t.Fatalf("extracted %d bytes over the %d-byte limit", size, limit)
	}
}
