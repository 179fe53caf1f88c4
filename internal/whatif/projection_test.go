package whatif

import (
	"math"
	"math/rand"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// synthWorkloads returns a few synthesized workloads (distinct schema seeds)
// plus the deterministic generated ones — the population the projection
// property tests sweep.
func synthWorkloads(t *testing.T) []*workload.Workload {
	t.Helper()
	var out []*workload.Workload
	for _, seed := range []int64{1, 7, 42} {
		w, err := workload.Synthesize(workload.SynthSpec{
			Name: "synth", Seed: seed,
			NumTables: 12, NumQueries: 16,
			ScansMean: 3, ScansJitter: 1, FiltersMean: 2,
			ExtraScan: 0.2, TablePool: 10,
			RowsMin: 10_000, RowsMax: 2_000_000,
			PayloadMin: 16, PayloadMax: 120,
			HotTables: 3, HotProb: 0.5,
		})
		if err != nil {
			t.Fatalf("synthesize seed %d: %v", seed, err)
		}
		out = append(out, w)
	}
	out = append(out, workload.ByName("tpch"))
	return out
}

// TestProjectionCostPreserving is the central correctness property of the
// relevance projection that lets the optimizer cache key on the projected
// fingerprint and the plan space visit only relevant candidates:
//
//  1. Structurally, an index outside Relevance(q) can never be admitted by
//     buildSpace. Its only two ways in are an access path (indexAccessCost
//     ok) and an INL probe (leading key among the ref's join columns), so
//     for every ref and every same-table candidate outside the projection,
//     indexAccessCost must report !ok and Key[0] must not be a join column.
//  2. On ≥1000 random (query, configuration) pairs per workload,
//     cost(q, cfg ∩ Relevance(q)) == cost(q, cfg) bit for bit.
func TestProjectionCostPreserving(t *testing.T) {
	for _, w := range synthWorkloads(t) {
		cands := candidatesFor(w)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", w.Name)
		}
		o := New(w.DB, cands)
		for _, q := range w.Queries {
			rel := o.Relevance(q)
			for ri := range q.Refs {
				r := &q.Refs[ri]
				tab := w.DB.Table(r.Table)
				if tab == nil {
					continue
				}
				rowsOut := o.baseAccess(r).rowsOut
				for ord := range cands {
					ix := &cands[ord]
					if ix.Table != r.Table || rel.Has(ord) {
						continue
					}
					if _, ok, _ := o.indexAccessCost(tab, r, ix, rowsOut); ok {
						t.Fatalf("%s %s: irrelevant index %s is an access path for ref %d", w.Name, q.ID, ix.ID(), ri)
					}
					if containsCol(r.JoinCols, ix.Key[0]) {
						t.Fatalf("%s %s: irrelevant index %s leads with join column of ref %d", w.Name, q.ID, ix.ID(), ri)
					}
				}
			}
		}

		rng := rand.New(rand.NewSource(11))
		const trials = 1000
		for trial := 0; trial < trials; trial++ {
			q := w.Queries[rng.Intn(len(w.Queries))]
			var cfg iset.Set
			// Mix of sparse and dense configurations.
			n := 1 + rng.Intn(8)
			if rng.Intn(10) == 0 {
				n = len(cands) / 2
			}
			for i := 0; i < n; i++ {
				cfg.Add(rng.Intn(len(cands)))
			}
			full := o.PeekCost(q, cfg)
			projCfg := cfg.Intersect(o.Relevance(q))
			if got := o.PeekCost(q, projCfg); got != full {
				t.Fatalf("%s %s: cost(cfg ∩ rel) = %v, cost(cfg) = %v (cfg=%v rel=%v)",
					w.Name, q.ID, got, full, cfg, o.Relevance(q))
			}
		}
	}
}

// TestPlanTotalMatchesPeekCost: for random configurations on TPC-H and a
// synthesized workload, the plan's total is PeekCost bit for bit — Plan and
// the cost paths read the same plan-space evaluation.
func TestPlanTotalMatchesPeekCost(t *testing.T) {
	for _, w := range digestWorkloads(t) {
		cands := digestCandidates(w)
		o := New(w.DB, cands)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 500; trial++ {
			q := w.Queries[rng.Intn(len(w.Queries))]
			var cfg iset.Set
			for k := 1 + rng.Intn(12); k > 0; k-- {
				cfg.Add(rng.Intn(len(cands)))
			}
			if p, c := o.Plan(q, cfg).TotalCost, o.PeekCost(q, cfg); math.Float64bits(p) != math.Float64bits(c) {
				t.Fatalf("%s %s cfg %v: Plan total %v != PeekCost %v", w.Name, q.ID, cfg, p, c)
			}
		}
	}
}

// TestPairOfCollapsesIrrelevant: configurations differing only in an index
// irrelevant to the query share a projected Pair; differing in a relevant
// index they do not. The unprojected pair distinguishes both.
func TestPairOfCollapsesIrrelevant(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q2 := w.Queries[1] // touches only table big
	rel := o.Relevance(q2)
	irrelevant, relevant := -1, -1
	for i := range cands {
		if rel.Has(i) {
			relevant = i
		} else {
			irrelevant = i
		}
	}
	if irrelevant < 0 || relevant < 0 {
		t.Fatalf("fixture lost its relevance split: rel=%v", rel)
	}
	base := iset.FromOrdinals(relevant)
	plus := base.With(irrelevant)
	if o.PairOf(q2, base) != o.PairOf(q2, plus) {
		t.Fatal("projected pair should ignore irrelevant indexes")
	}
	if o.KeyOf(q2).UnprojectedPair(base) == o.KeyOf(q2).UnprojectedPair(plus) {
		t.Fatal("unprojected pair must distinguish any config difference")
	}
	other := iset.Set{}
	if rel.Len() > 1 {
		for _, ord := range rel.Ordinals() {
			if ord != relevant {
				other = base.With(ord)
				break
			}
		}
		if o.PairOf(q2, base) == o.PairOf(q2, other) {
			t.Fatal("projected pair must distinguish relevant differences")
		}
	}
	// Projection-collapsed pairs must be cost-equal (the cache soundness
	// condition).
	if o.PeekCost(q2, base) != o.PeekCost(q2, plus) {
		t.Fatal("collapsed pair with different costs")
	}
}

// TestPairFingerprintCanonical: physically different bitset backings of the
// same set produce identical pairs.
func TestPairFingerprintCanonical(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q := w.Queries[0]
	a := iset.FromOrdinals(0, 3)
	b := iset.NewSet(512) // long zero backing
	b.Add(0)
	b.Add(3)
	if o.PairOf(q, a) != o.PairOf(q, b) {
		t.Fatal("projected fingerprint depends on backing length")
	}
	if o.KeyOf(q).UnprojectedPair(a) != o.KeyOf(q).UnprojectedPair(b) {
		t.Fatal("unprojected fingerprint depends on backing length")
	}
	// Distinct queries intern distinct ids even for equal configs.
	if o.PairOf(q, a) == o.PairOf(w.Queries[1], a) {
		t.Fatal("distinct queries share a pair")
	}
}

// TestRelevanceSubsetAndStable: the projection is a subset of the same-table
// candidates and interning is stable across calls.
func TestRelevanceSubsetAndStable(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	for _, q := range w.Queries {
		rel := o.Relevance(q)
		tables := make(map[string]bool)
		for ri := range q.Refs {
			tables[q.Refs[ri].Table] = true
		}
		for _, ord := range rel.Ordinals() {
			if !tables[cands[ord].Table] {
				t.Fatalf("%s: irrelevant-table index %d in projection", q.ID, ord)
			}
		}
		if !rel.Equal(o.Relevance(q)) {
			t.Fatalf("%s: relevance not stable", q.ID)
		}
	}
}

// TestHotPairPathDoesNotAllocate pins the zero-allocation contract of the
// cache-key path: building projected/unprojected pairs and answering a
// cache-hit WhatIf must not allocate once the query is interned.
func TestHotPairPathDoesNotAllocate(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q := w.Queries[0]
	cfg := iset.FromOrdinals(0, 4)
	o.WhatIf(q, cfg) // intern + warm the cache
	if n := testing.AllocsPerRun(100, func() { o.PairOf(q, cfg) }); n != 0 {
		t.Fatalf("PairOf allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { o.KeyOf(q).UnprojectedPair(cfg) }); n != 0 {
		t.Fatalf("UnprojectedPair allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { o.WhatIf(q, cfg) }); n != 0 {
		t.Fatalf("cache-hit WhatIf allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { o.Known(q, cfg) }); n != 0 {
		t.Fatalf("Known allocates %v/op", n)
	}
	k := o.KeyOf(q)
	if n := testing.AllocsPerRun(100, func() { k.Pair(cfg) }); n != 0 {
		t.Fatalf("QueryKey.Pair allocates %v/op", n)
	}
}

// TestQueryKeyMatchesPairOf: a resolved key builds exactly the pairs the
// per-call lookup builds — the projected one equal to PairOf, the
// unprojected one the query id plus the full fingerprint — over random
// configurations of several widths.
func TestQueryKeyMatchesPairOf(t *testing.T) {
	for _, w := range synthWorkloads(t) {
		o := New(w.DB, candidatesFor(w))
		n := len(o.Candidates)
		rng := rand.New(rand.NewSource(5))
		for _, q := range w.Queries {
			k := o.KeyOf(q)
			if k2 := o.KeyOf(q); k2.qid != k.qid {
				t.Fatalf("%s: KeyOf not stable", q.ID)
			}
			for trial := 0; trial < 30; trial++ {
				cfg := iset.NewSet(n + 64*rng.Intn(3))
				for j := rng.Intn(12); j > 0 && n > 0; j-- {
					cfg.Add(rng.Intn(n))
				}
				if got, want := k.Pair(cfg), o.PairOf(q, cfg); got != want {
					t.Fatalf("%s %v: Pair = %v, PairOf = %v", q.ID, cfg.Ordinals(), got, want)
				}
				want := Pair{QID: o.info(q).qid, FP: fingerprintFull(cfg)}
				if got := k.UnprojectedPair(cfg); got != want {
					t.Fatalf("%s %v: UnprojectedPair = %v, want %v", q.ID, cfg.Ordinals(), got, want)
				}
			}
		}
	}
}

// collisionFixture is the fixture workload over a 192-candidate universe —
// three fingerprint words — where every candidate is relevant to query q2:
// ordinals below 100 are covering seeks on its filter column, the rest plain
// seeks, so the formerly colliding {63} and {127} also differ in cost.
func collisionFixture() (*workload.Workload, []schema.Index) {
	w, _ := fixture()
	cands := make([]schema.Index, 192)
	for ord := range cands {
		cands[ord] = schema.Index{Table: "big", Key: []string{"v"}}
		if ord < 100 {
			cands[ord].Include = []string{"pay"}
		}
	}
	return w, cands
}

// TestFingerprintHighBitsDistinct is the regression test for the word-wise
// FNV-1a collisions: the empty set, every singleton, and every pair over a
// three-word universe get distinct projected and unprojected fingerprints —
// including {63}/{127}, {63,127}/∅, and {62}/{126}, which the unavalanched
// hash aliased.
func TestFingerprintHighBitsDistinct(t *testing.T) {
	w, cands := collisionFixture()
	o := New(w.DB, cands)
	q := w.Queries[1]
	if o.Relevance(q).Len() != len(cands) {
		t.Fatalf("fixture: %d of %d candidates relevant", o.Relevance(q).Len(), len(cands))
	}
	for _, pr := range [][2]iset.Set{
		{iset.FromOrdinals(63), iset.FromOrdinals(127)},
		{iset.FromOrdinals(63, 127), {}},
		{iset.FromOrdinals(62), iset.FromOrdinals(126)},
		{iset.FromOrdinals(127), iset.FromOrdinals(191)},
		{iset.FromOrdinals(63, 191), {}},
	} {
		if o.PairOf(q, pr[0]) == o.PairOf(q, pr[1]) {
			t.Errorf("PairOf collides: %v vs %v", pr[0].Ordinals(), pr[1].Ordinals())
		}
		if o.KeyOf(q).UnprojectedPair(pr[0]) == o.KeyOf(q).UnprojectedPair(pr[1]) {
			t.Errorf("UnprojectedPair collides: %v vs %v", pr[0].Ordinals(), pr[1].Ordinals())
		}
	}
	proj := map[Pair][]int{o.PairOf(q, iset.Set{}): nil}
	full := map[Pair][]int{o.KeyOf(q).UnprojectedPair(iset.Set{}): nil}
	check := func(ords ...int) {
		cfg := iset.FromOrdinals(ords...)
		for _, seen := range []struct {
			m map[Pair][]int
			p Pair
		}{{proj, o.PairOf(q, cfg)}, {full, o.KeyOf(q).UnprojectedPair(cfg)}} {
			if prev, dup := seen.m[seen.p]; dup {
				t.Fatalf("fingerprint of %v collides with %v", ords, prev)
			}
			seen.m[seen.p] = ords
		}
	}
	for i := range cands {
		check(i)
		for j := i + 1; j < len(cands); j++ {
			check(i, j)
		}
	}
}

// TestWhatIfDistinctCostsForFormerlyCollidingPair: through one optimizer,
// {63} and then {127} must each get their own cost, not the cache entry of
// the other.
func TestWhatIfDistinctCostsForFormerlyCollidingPair(t *testing.T) {
	w, cands := collisionFixture()
	q := w.Queries[1]
	a, b := iset.FromOrdinals(63), iset.FromOrdinals(127)
	wantA, wantB := New(w.DB, cands).PeekCost(q, a), New(w.DB, cands).PeekCost(q, b)
	if wantA == wantB {
		t.Fatalf("fixture: {63} and {127} cost the same (%v)", wantA)
	}
	o := New(w.DB, cands)
	if got := o.WhatIf(q, a); got != wantA {
		t.Fatalf("WhatIf({63}) = %v, want %v", got, wantA)
	}
	if got := o.WhatIf(q, b); got != wantB {
		t.Fatalf("WhatIf({127}) = %v, want %v (aliased the cached {63})", got, wantB)
	}
	if o.Calls() != 2 {
		t.Fatalf("calls = %d, want 2 distinct pairs", o.Calls())
	}
}
