package search_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/dta"
	"indextune/internal/schema"
	"indextune/internal/search"
	"indextune/internal/workload"
)

// relevantDigests holds, per built-in workload, the SHA-256 of every
// query's relevant-candidate list over the plain candidate universe and
// over the DTA-merged one.
var relevantDigests = map[string][2]string{
	"tpch": {
		"416ddb902f32a2a369a85c058365fa3073da390408ad6932ef7ba0df2a2fafe2",
		"f0e26662d69ccd805fb650a681d0cf6e20b2b0c0b114e83b97682086aa4cb246",
	},
	"tpcds": {
		"62607c76ec6a6a30999cc1de20b67604fa7ae9cb7aa19a5c73adabeaed8a268b",
		"7fbcef0a7de0adc1bad8807e993f34a0aefb4dbd4cddc41a1d9fefc833c712fd",
	},
	"job": {
		"edba3dab2e720949365fdb2bea07e6bf7e56ba3f70256902aae31e2752997ff4",
		"24b7a849b5882ea75a7a2c7a50c63652a8f1ec754c028e9ce6575e1d84560108",
	},
	"real-d": {
		"adf7f0d807aa41e25966115148bdbd2c212d409a04d5558896ff38d95290b5ac",
		"df46327516d81e31188a2d1e045252b98aa26ef40b81f45a83b4284545263847",
	},
	"real-m": {
		"f54fcd36b0f1e59799b2f7a6f19e182be28701205b591c666a0c520de4824591",
		"0d934fc7b60ffa6cb39b81d8dec7bf05e4a15b0e55c107e10cba86021d250bef",
	},
}

// relevantDigest hashes the lists one query per line, ordinals ascending.
func relevantDigest(lists [][]int) string {
	h := sha256.New()
	for qi, rel := range lists {
		fmt.Fprintln(h, qi, rel)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relevantLists returns a session's relevant list for every query of w.
func relevantLists(w *workload.Workload, cands *candgen.Result) [][]int {
	s := search.NewSession(w, cands, search.NewOptimizer(w, cands), 5, 100, 1)
	out := make([][]int, len(w.Queries))
	for qi := range out {
		out[qi] = s.Relevant(qi)
	}
	return out
}

// TestRelevantDigest pins every built-in workload's per-query relevant
// lists, plain and DTA-merged. The digests were recorded from the string
// scan candgen once ran over each universe; Session.Relevant reproduces
// them from the optimizer's relevance bitmap.
func TestRelevantDigest(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		plain := candgen.Generate(w, candgen.Options{})
		merged := dta.WithMergedCandidates(w, candgen.Generate(w, candgen.Options{}))
		for i, cands := range []*candgen.Result{plain, merged} {
			got := relevantDigest(relevantLists(w, cands))
			if want := relevantDigests[name][i]; got != want {
				t.Errorf("%s universe %d: relevant digest %s, want %s", name, i, got, want)
			}
		}
	}
}

// TestRelevantIsSupersetOfPerQuery checks that every candidate generated
// for a query is listed as relevant to it: on TPC-H, and on a pure-covering
// fallback whose include cap leaves it outside the optimizer's relevance
// set.
func TestRelevantIsSupersetOfPerQuery(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	for qi, rel := range relevantLists(w, cands) {
		for _, o := range cands.PerQuery[qi] {
			if !slices.Contains(rel, o) {
				t.Fatalf("query %d: PerQuery ordinal %d missing from Relevant", qi, o)
			}
		}
	}

	db := schema.NewDatabase("scan")
	db.AddTable(schema.NewTable("T", 1000,
		schema.Column{Name: "a", NDV: 10, Width: 8},
		schema.Column{Name: "b", NDV: 10, Width: 8},
		schema.Column{Name: "c", NDV: 10, Width: 8},
	))
	b := workload.NewBuilder("scan")
	r := b.Ref("T")
	b.Proj(r, "a").Proj(r, "b").Proj(r, "c")
	w = &workload.Workload{Name: "scan", DB: db, Queries: []*workload.Query{b.Build()}}
	cands = candgen.Generate(w, candgen.Options{MaxIncludeCols: 1})
	if len(cands.PerQuery[0]) != 1 {
		t.Fatalf("want one fallback candidate, got %d", len(cands.PerQuery[0]))
	}
	fallback := cands.PerQuery[0][0]
	if search.NewOptimizer(w, cands).Relevance(w.Queries[0]).Has(fallback) {
		t.Fatalf("fallback %s should fall outside the optimizer's relevance set", cands.Candidates[fallback].Index.ID())
	}
	if rel := relevantLists(w, cands)[0]; !slices.Equal(rel, []int{fallback}) {
		t.Fatalf("relevant %v, want the fallback [%d]", rel, fallback)
	}
}

// TestRelevantListsAppendedCandidate checks that a session over an
// appended or merged universe lists the new candidates: an appended index
// no query generated, found through the optimizer alone, and every DTA
// merged index, for each query it was merged from.
func TestRelevantListsAppendedCandidate(t *testing.T) {
	w := figure3Workload()
	cands := candgen.Generate(w, candgen.Options{})
	ord := len(cands.Candidates)
	cands.Candidates = append(cands.Candidates, candgen.Candidate{
		Index:   schema.Index{Table: "R", Key: []string{"b", "a"}},
		Ordinal: ord,
	})
	for qi, rel := range relevantLists(w, cands) {
		if slices.Contains(cands.PerQuery[qi], ord) {
			t.Fatalf("query %d: appended candidate already generated for it", qi)
		}
		if !slices.Contains(rel, ord) {
			t.Fatalf("query %d: appended join-leading candidate R(b,a) is not relevant", qi)
		}
	}

	w = workload.ByName("tpch")
	plain := len(candgen.Generate(w, candgen.Options{}).Candidates)
	cands = dta.WithMergedCandidates(w, candgen.Generate(w, candgen.Options{}))
	if len(cands.Candidates) == plain {
		t.Fatal("TPC-H produced no merged candidates")
	}
	rel := relevantLists(w, cands)
	for _, c := range cands.Candidates[plain:] {
		for _, qi := range c.Queries {
			if !slices.Contains(rel[qi], c.Ordinal) {
				t.Fatalf("query %d: merged candidate %s is not relevant", qi, c.Index.ID())
			}
		}
	}
}

// figure3Workload is the paper's running example: R(a,b), S(c,d) with
// queries Q1 and Q2, both joining R.b = S.c.
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
	b := workload.NewBuilder("Q1")
	r := b.Ref("R")
	s := b.Ref("S")
	b.Eq(r, "a", 0.001).Range(s, "d", 0.3).Join(r, "b", s, "c").Proj(r, "a").Proj(s, "d")
	q1 := b.Build()
	b = workload.NewBuilder("Q2")
	r = b.Ref("R")
	s = b.Ref("S")
	b.Eq(r, "a", 0.001).Join(r, "b", s, "c").Proj(r, "a")
	q2 := b.Build()
	return &workload.Workload{Name: "fig3", DB: db, Queries: []*workload.Query{q1, q2}}
}
