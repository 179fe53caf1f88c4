package whatif_test

import (
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/greedy"
	"indextune/internal/search"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// TestNewSessionBuildsNoRelevance pins what a session set-up pays on Real-M:
// NewSession interns all 317 queries and scores their baselines, but builds
// no query's relevance bitmap and no table's column masks. A two-phase run
// at B = 5000 then builds relevance only for the few queries it charges
// before the budget runs out, and the first Relevance of a query builds it.
func TestNewSessionBuildsNoRelevance(t *testing.T) {
	w := workload.ByName("real-m")
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	s := search.NewSession(w, cands, opt, 10, 5000, 1)
	if interned, queries, tables := whatif.BuiltRelevance(opt); interned != len(w.Queries) || queries != 0 || tables != 0 {
		t.Fatalf("after NewSession: %d of %d queries interned, %d relevance bitmaps and %d tables' masks built, want all interned and nothing built",
			interned, len(w.Queries), queries, tables)
	}
	s.DeriveEpsilon = search.DefaultDeriveEpsilon
	s.StopEpsilon = search.DefaultStopEpsilon
	search.Run(greedy.TwoPhase{}, s)
	_, charged, _ := whatif.BuiltRelevance(opt)
	if charged == 0 || charged > len(w.Queries)/10 {
		t.Fatalf("a two-phase run built %d of %d queries' relevance, want a few", charged, len(w.Queries))
	}
	last := w.Queries[len(w.Queries)-1]
	opt.Relevance(last)
	if _, queries, _ := whatif.BuiltRelevance(opt); queries != charged+1 {
		t.Fatalf("Relevance of %s built %d bitmaps, want 1", last.ID, queries-charged)
	}
}
