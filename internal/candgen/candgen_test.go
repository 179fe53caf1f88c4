package candgen

import (
	"sort"
	"testing"

	"indextune/internal/schema"
	"indextune/internal/workload"
)

// figure3Workload reproduces the paper's running example: R(a,b), S(c,d)
// with queries Q1 and Q2.
func figure3Workload() *workload.Workload {
	db := schema.NewDatabase("fig3")
	db.AddTable(schema.NewTable("R", 100000,
		schema.Column{Name: "a", NDV: 1000, Width: 8},
		schema.Column{Name: "b", NDV: 50000, Width: 8},
	))
	db.AddTable(schema.NewTable("S", 200000,
		schema.Column{Name: "c", NDV: 100000, Width: 8},
		schema.Column{Name: "d", NDV: 500, Width: 8},
	))
	// Q1: SELECT a, d FROM R, S WHERE R.b = S.c AND R.a = 5 AND S.d > 200
	b := workload.NewBuilder("Q1")
	r := b.Ref("R")
	s := b.Ref("S")
	b.Eq(r, "a", 0.001).Range(s, "d", 0.3).Join(r, "b", s, "c").Proj(r, "a").Proj(s, "d")
	q1 := b.Build()
	// Q2: SELECT a FROM R, S WHERE R.b = S.c AND R.a = 40
	b = workload.NewBuilder("Q2")
	r = b.Ref("R")
	s = b.Ref("S")
	b.Eq(r, "a", 0.001).Join(r, "b", s, "c").Proj(r, "a")
	q2 := b.Build()
	return &workload.Workload{Name: "fig3", DB: db, Queries: []*workload.Query{q1, q2}}
}

func idsOf(res *Result) map[string]bool {
	out := make(map[string]bool, len(res.Candidates))
	for _, c := range res.Candidates {
		out[c.Index.ID()] = true
	}
	return out
}

// The candidates of Figure 3 must all be generated: [R.a; R.b], [R.b; R.a],
// [S.c; S.d], [S.d; S.c], [S.c; ()].
func TestFigure3Candidates(t *testing.T) {
	res := Generate(figure3Workload(), Options{})
	ids := idsOf(res)
	for _, want := range []string{
		"R(a)+(b)", // I1 = [R.a; R.b]
		"R(b)+(a)", // I2 = [R.b; R.a]
		"S(c)+(d)", // I3 = [S.c; S.d]
		"S(d)+(c)", // I4 = [S.d; S.c]
		"S(c)",     // I5 = [S.c; ()]
	} {
		if !ids[want] {
			t.Errorf("missing Figure-3 candidate %s (have %v)", want, keys(ids))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestCandidatesValidateAgainstSchema(t *testing.T) {
	for _, name := range []string{"tpch", "tpcds", "job"} {
		w := workload.ByName(name)
		res := Generate(w, Options{})
		for _, c := range res.Candidates {
			if err := c.Index.Validate(w.DB); err != nil {
				t.Fatalf("%s: invalid candidate: %v", name, err)
			}
		}
	}
}

func TestCandidateIDsUnique(t *testing.T) {
	res := Generate(workload.ByName("tpch"), Options{})
	seen := make(map[string]int)
	for i, c := range res.Candidates {
		if c.Ordinal != i {
			t.Fatalf("candidate %d carries ordinal %d", i, c.Ordinal)
		}
		if j, dup := seen[c.Index.ID()]; dup {
			t.Fatalf("duplicate candidate %s at %d and %d", c.Index.ID(), j, i)
		}
		seen[c.Index.ID()] = i
	}
}

func TestPerQueryOrdinalsConsistent(t *testing.T) {
	w := workload.ByName("tpch")
	res := Generate(w, Options{})
	for qi, per := range res.PerQuery {
		for _, ord := range per {
			if ord < 0 || ord >= len(res.Candidates) {
				t.Fatalf("query %d references out-of-range ordinal %d", qi, ord)
			}
			found := false
			for _, cq := range res.Candidates[ord].Queries {
				if cq == qi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("query %d in PerQuery but not in candidate %d provenance", qi, ord)
			}
		}
	}
}

func TestAtomicPairsAreSorted(t *testing.T) {
	res := Generate(workload.ByName("tpch"), Options{})
	if len(res.AtomicPairs) == 0 {
		t.Fatal("TPC-H should produce single-join atomic pairs")
	}
	seen := make(map[[2]int]bool)
	for _, p := range res.AtomicPairs {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not sorted", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestUniverseOrderedByFanOut(t *testing.T) {
	res := Generate(workload.ByName("tpcds"), Options{})
	for i := 1; i < len(res.Candidates); i++ {
		if len(res.Candidates[i].Queries) > len(res.Candidates[i-1].Queries) {
			t.Fatalf("candidates not ordered by fan-out at %d: %d > %d",
				i, len(res.Candidates[i].Queries), len(res.Candidates[i-1].Queries))
		}
	}
}

func TestWideCandidatesExist(t *testing.T) {
	res := Generate(workload.ByName("tpcds"), Options{})
	// The top candidate by fan-out should be relevant to many queries.
	if got := len(res.Candidates[0].Queries); got < 10 {
		t.Fatalf("top candidate serves only %d queries", got)
	}
}

func TestMaxPerRefCap(t *testing.T) {
	w := figure3Workload()
	res := Generate(w, Options{MaxPerRef: 1})
	// With one candidate per ref, at most 2 refs × 2 queries (deduped).
	if len(res.Candidates) > 8 {
		t.Fatalf("MaxPerRef=1 produced %d candidates", len(res.Candidates))
	}
}

func TestMaxIncludeColsCap(t *testing.T) {
	w := workload.ByName("real-m")
	res := Generate(w, Options{MaxIncludeCols: 2})
	for _, c := range res.Candidates {
		if len(c.Index.Include) > 4 { // wide candidates may use 2×cap
			t.Fatalf("candidate %s exceeds include cap", c.Index.ID())
		}
	}
}
