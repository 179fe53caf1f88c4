package greedy

import (
	"math"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/search"
)

// runMatches runs x and fails unless it returns exactly — configuration and
// cost bits — what a from-scratch derived-only Search returns on the store
// as it is now.
func runMatches(t *testing.T, s *search.Session, x *Extractor, k int) (iset.Set, float64) {
	t.Helper()
	cfg, c := x.Run()
	want, wantC := Search(s, allQueries(s), allOrdinals(s.NumCandidates()), iset.Set{}, k, EvalDerived)
	if !cfg.Equal(want) || math.Float64bits(c) != math.Float64bits(wantC) {
		t.Fatalf("memoized %v cost %v (%#x), from scratch %v cost %v (%#x)",
			cfg.Ordinals(), c, math.Float64bits(c), want.Ordinals(), wantC, math.Float64bits(wantC))
	}
	return cfg, c
}

// winners returns the memoized step winners, -1 marking a step that ends
// the greedy before cardinality k.
func winners(x *Extractor) []int {
	var out []int
	for _, st := range x.steps {
		if st.cur.Len() < x.k {
			out = append(out, st.ord)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// record registers c(q, ords) = frac·c(q, ∅).
func record(s *search.Session, q int, frac float64, ords ...int) {
	s.Derived.Record(q, iset.FromOrdinals(ords...), frac*s.Derived.Base(q))
}

// largest returns the query with the highest baseline cost: an entry
// cutting it outweighs any cut of another query's cost by the same fraction.
func largest(s *search.Session) int {
	big := 0
	for q := range s.W.Queries {
		if s.Derived.Base(q) > s.Derived.Base(big) {
			big = q
		}
	}
	return big
}

// An empty-configuration entry lowers d(q, cur) at every step: step 0's
// cost must be re-summed and the deltas of q's candidates recomputed.
func TestExtractorEmptyConfigurationEntry(t *testing.T) {
	s := session(t, "tpch", 3, 0)
	record(s, 0, 0.5, 0)
	record(s, 1, 0.6, 1)
	record(s, 2, 0.7, 2)
	x := NewExtractor(s, 3)
	_, before := runMatches(t, s, x, 3)
	record(s, 0, 0.8)
	record(s, 3, 0.5)
	if _, after := runMatches(t, s, x, 3); !(after < before) {
		t.Fatalf("cost %v after empty-configuration entries, want below %v", after, before)
	}
}

// A singleton entry stronger than every other flips step 0's winner and
// rebuilds every later step.
func TestExtractorFlipsFirstStep(t *testing.T) {
	s := session(t, "tpch", 3, 0)
	record(s, 0, 0.5, 0)
	record(s, 1, 0.6, 1)
	record(s, 2, 0.7, 2)
	x := NewExtractor(s, 3)
	runMatches(t, s, x, 3)
	if got := winners(x); len(got) != 3 || got[0] != 0 {
		t.Fatalf("winners %v, want 3 steps starting with 0", got)
	}
	record(s, largest(s), 0.01, 5)
	runMatches(t, s, x, 3)
	if got := winners(x); len(got) != 3 || got[0] != 5 {
		t.Fatalf("winners %v after a dominant singleton, want 3 steps starting with 5", got)
	}
}

// An entry {o_0, e} qualifies only once o_0 is chosen: step 0 keeps its
// winner, step 1's flips to e.
func TestExtractorFlipsMiddleStep(t *testing.T) {
	s := session(t, "tpch", 3, 0)
	record(s, 0, 0.5, 0)
	record(s, 1, 0.6, 1)
	record(s, 2, 0.7, 2)
	x := NewExtractor(s, 3)
	runMatches(t, s, x, 3)
	before := winners(x)
	record(s, largest(s), 0.2, 0, 7)
	runMatches(t, s, x, 3)
	if got := winners(x); len(got) != 3 || got[0] != before[0] || got[1] != 7 {
		t.Fatalf("winners %v after a pair entry on %v, want step 0 kept and 7 at step 1", got, before)
	}
}

// A greedy that ends early for want of an improving candidate is extended
// when later entries supply one, including entries that only qualify at
// the steps appended since.
func TestExtractorExtendsEarlyBreak(t *testing.T) {
	s := session(t, "tpch", 5, 0)
	record(s, 0, 0.5, 0)
	x := NewExtractor(s, 5)
	if cfg, _ := runMatches(t, s, x, 5); cfg.Len() != 1 {
		t.Fatalf("extracted %v, want a single index before the break", cfg.Ordinals())
	}
	if got := winners(x); !sameInts(got, []int{0, -1}) {
		t.Fatalf("winners %v, want [0 -1]", got)
	}
	record(s, 1, 0.5, 3)
	runMatches(t, s, x, 5)
	record(s, 0, 0.1, 0, 3)
	record(s, 2, 0.4, 0, 3, 9)
	if cfg, _ := runMatches(t, s, x, 5); cfg.Len() != 3 {
		t.Fatalf("extracted %v, want three indexes after the extension", cfg.Ordinals())
	}
	if got := winners(x); !sameInts(got, []int{0, 3, 9, -1}) {
		t.Fatalf("winners %v, want [0 3 9 -1]", got)
	}
}
