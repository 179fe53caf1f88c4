package whatif

import (
	"fmt"
	"math/rand"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// relevantTo is the reference form of the relevance criterion, written
// against the index's column strings: ix (same table assumed) can affect the
// access or join cost of ref r when it has a leading key that is a filter
// column of r (a sargable prefix: indexAccessCost requires matched > 0), or
// covers everything r reads (matched == 0 scans and covered INL fetches), or
// leads with a join column of r (INL probes require Key[0] among the
// connecting join columns, always a subset of r.JoinCols), or leads with a
// sort column of r (a safety margin: order only matters for indexes the
// other routes already admit). relevanceOf computes the same predicate from
// column masks; TestRelevanceMatchesReference holds the two equal.
func relevantTo(r *workload.TableRef, ix *schema.Index) bool {
	if len(ix.Key) == 0 {
		return false
	}
	lead := ix.Key[0]
	if findPredicate(r, lead) != nil {
		return true
	}
	if ix.Covers(r.Need) {
		return true
	}
	if containsCol(r.JoinCols, lead) {
		return true
	}
	return containsCol(r.SortCols, lead)
}

// checkRelevance compares, for every query of w, the optimizer's relevance
// bitmap word for word with the relevantTo scan over every candidate.
func checkRelevance(t *testing.T, name string, w *workload.Workload, cands []schema.Index) {
	t.Helper()
	o := New(w.DB, cands)
	for _, q := range w.Queries {
		want := make([]uint64, o.relWords)
		for ri := range q.Refs {
			r := &q.Refs[ri]
			for ord := range cands {
				if cands[ord].Table == r.Table && relevantTo(r, &cands[ord]) {
					setBit(want, ord)
				}
			}
		}
		got := o.Relevance(q)
		for wi := range want {
			if got.Word(wi) != want[wi] {
				t.Fatalf("%s %s: relevance word %d = %#x, reference %#x", name, q.ID, wi, got.Word(wi), want[wi])
			}
		}
		if got.NumWords() > len(want) {
			t.Fatalf("%s %s: relevance spans %d words, universe %d", name, q.ID, got.NumWords(), len(want))
		}
	}
}

// TestRelevanceMatchesReference holds the mask-based relevance computation
// to the string-compare criterion it replaces, on every query of every
// built-in workload and on seeded random schemas built to reach the edges
// the built-ins do not: a table with more than 64 indexed columns (masks
// of several words), keyless indexes, needed columns no candidate stores,
// empty Need, self-joins, and refs of a table without candidates.
func TestRelevanceMatchesReference(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		checkRelevance(t, name, w, candgen.Generate(w, candgen.Options{}).Indexes())
	}
	for seed := int64(1); seed <= 8; seed++ {
		w, cands := randomRelevanceSchema(seed)
		o := New(w.DB, cands)
		if tc := o.tables["wide"]; tc == nil || tc.words < 2 {
			t.Fatalf("seed %d: table wide should need a multi-word column mask", seed)
		}
		checkRelevance(t, fmt.Sprintf("random seed %d", seed), w, cands)
	}
}

// randomRelevanceSchema builds a seeded schema of three tables — wide (150
// columns), narrow (10) and bare (6, no candidates) — with random
// candidates on the first two, keyless ones included, and queries of
// random refs. Column "ghost" exists in every table but no candidate
// stores it, so refs that need it can never be covered.
func randomRelevanceSchema(seed int64) (*workload.Workload, []schema.Index) {
	rng := rand.New(rand.NewSource(seed))
	db := schema.NewDatabase("relevance")
	widths := map[string]int{"wide": 150, "narrow": 10, "bare": 6}
	tables := []string{"wide", "narrow", "bare"}
	colName := func(i int) string { return fmt.Sprintf("c%d", i) }
	for _, tn := range tables {
		cols := []schema.Column{{Name: "ghost", NDV: 10, Width: 4}}
		for i := 0; i < widths[tn]; i++ {
			cols = append(cols, schema.Column{Name: colName(i), NDV: 100, Width: 4})
		}
		db.AddTable(schema.NewTable(tn, 100_000, cols...))
	}
	pick := func(tn string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = colName(rng.Intn(widths[tn]))
		}
		return out
	}
	var cands []schema.Index
	for _, tn := range tables[:2] {
		for i := 0; i < 4*widths[tn]; i++ {
			ix := schema.Index{Table: tn, Key: pick(tn, rng.Intn(3)), Include: pick(tn, rng.Intn(4))}
			if len(ix.Key) == 0 && len(ix.Include) == 0 {
				ix.Include = pick(tn, 1)
			}
			cands = append(cands, ix)
		}
	}
	// A few wide candidates that store many columns, so covering refs with
	// long Need lists reach across mask words.
	for i := 0; i < 8; i++ {
		cands = append(cands, schema.Index{Table: "wide", Key: pick("wide", 1), Include: pick("wide", 40+rng.Intn(60))})
	}

	w := &workload.Workload{Name: "relevance", DB: db}
	ref := func(tn string) workload.TableRef {
		r := workload.TableRef{Table: tn}
		for _, c := range pick(tn, rng.Intn(3)) {
			r.Filters = append(r.Filters, workload.Predicate{Column: c, Op: workload.OpEquality, Selectivity: 0.1})
		}
		r.JoinCols = pick(tn, rng.Intn(2))
		r.SortCols = pick(tn, rng.Intn(2))
		switch rng.Intn(4) {
		case 0: // empty Need: every keyed index covers it
		case 1:
			r.Need = append(pick(tn, rng.Intn(3)), "ghost")
		default:
			r.Need = pick(tn, 1+rng.Intn(4))
		}
		return r
	}
	for qi := 0; qi < 60; qi++ {
		q := &workload.Query{ID: fmt.Sprintf("q%d", qi), Weight: 1}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			q.Refs = append(q.Refs, ref(tables[rng.Intn(len(tables))]))
		}
		// Self-join: a second ref of the first ref's table.
		if qi%3 == 0 {
			q.Refs = append(q.Refs, ref(q.Refs[0].Table))
		}
		w.Queries = append(w.Queries, q)
	}
	return w, cands
}
