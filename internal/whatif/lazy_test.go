package whatif

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/workload"
)

// lazyConfigs returns seeded configurations of q of every size from 0 to
// maxLen, drawing each member from three pools in turn at random: ordinals
// in q's relevance set, ordinals on q's tables that are irrelevant to q,
// and ordinals on tables q does not reference. ref supplies the relevance
// set and must not be the optimizer under test.
func lazyConfigs(ref *Optimizer, q *workload.Query, seed int64, maxLen int) []iset.Set {
	rng := rand.New(rand.NewSource(seed))
	rel := ref.Relevance(q)
	onQ := make(map[string]bool)
	for ri := range q.Refs {
		onQ[q.Refs[ri].Table] = true
	}
	var pools [3][]int
	for ord := range ref.Candidates {
		switch {
		case rel.Has(ord):
			pools[0] = append(pools[0], ord)
		case onQ[ref.Candidates[ord].Table]:
			pools[1] = append(pools[1], ord)
		default:
			pools[2] = append(pools[2], ord)
		}
	}
	var cfgs []iset.Set
	for size := 0; size <= maxLen; size++ {
		var cfg iset.Set
		for tries := 0; cfg.Len() < size && tries < 8*maxLen; tries++ {
			if p := pools[rng.Intn(3)]; len(p) > 0 {
				cfg.Add(p[rng.Intn(len(p))])
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestRestrictedPeekMatchesRelevance holds a one-shot peek on a query whose
// relevance was never built to the full relevance, on every built-in
// workload over its generated candidates and seeded configurations of 0 to
// K+1 = 11 members: the restricted relevance equals Relevance(q) ∩ cfg word
// for word, its fingerprint equals PairOf(q, cfg).FP, and PeekCost on a
// fresh optimizer equals WhatIf on another fresh optimizer and PeekCost
// once Relevance(q) is built, bit for bit.
func TestRestrictedPeekMatchesRelevance(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		cands := generatedCandidates(w)
		ref, cold, warm := New(w.DB, cands), New(w.DB, cands), New(w.DB, cands)
		for qi, q := range w.Queries {
			cfgs := lazyConfigs(ref, q, int64(qi)+1, 11)
			full := ref.Relevance(q)
			peeks := make([]float64, len(cfgs))
			for k, cfg := range cfgs {
				got := cold.relevanceOf(q, &cfg)
				want := full.Intersect(cfg)
				for wi := 0; wi < max(len(got), want.NumWords()); wi++ {
					var g uint64
					if wi < len(got) {
						g = got[wi]
					}
					if g != want.Word(wi) {
						t.Fatalf("%s %s cfg %v: restricted relevance word %d = %#x, Relevance ∩ cfg %#x", name, q.ID, cfg.Ordinals(), wi, g, want.Word(wi))
					}
				}
				if fp, pair := fingerprint(cfg, got), ref.PairOf(q, cfg); fp != pair.FP {
					t.Fatalf("%s %s cfg %v: restricted fingerprint %#x, PairOf %#x", name, q.ID, cfg.Ordinals(), fp, pair.FP)
				}
				peeks[k] = cold.PeekCost(q, cfg)
				if c := warm.WhatIf(q, cfg); math.Float64bits(c) != math.Float64bits(peeks[k]) {
					t.Fatalf("%s %s cfg %v: cold PeekCost %v, WhatIf %v", name, q.ID, cfg.Ordinals(), peeks[k], c)
				}
			}
			if cold.info(q).rel != nil {
				t.Fatalf("%s %s: a peek built the query's relevance", name, q.ID)
			}
			cold.Relevance(q)
			for k, cfg := range cfgs {
				if c := cold.PeekCost(q, cfg); math.Float64bits(c) != math.Float64bits(peeks[k]) {
					t.Fatalf("%s %s cfg %v: PeekCost %v before Relevance, %v after", name, q.ID, cfg.Ordinals(), peeks[k], c)
				}
			}
		}
	}
}

// lazyResult is everything one query's first touches return, with the
// query id left out: it depends on interning order.
type lazyResult struct {
	keyFP []uint64
	rel   string
	batch []float64
	peek  []float64
	base  float64
}

// touchQuery makes every first touch on q: KeyOf, Relevance, WhatIfBatch,
// PeekCost and BaseCost, in an order rotated by rot.
func touchQuery(o *Optimizer, q *workload.Query, cfgs []iset.Set, rot int) lazyResult {
	var r lazyResult
	ops := []func(){
		func() {
			k := o.KeyOf(q)
			for _, cfg := range cfgs {
				r.keyFP = append(r.keyFP, k.Pair(cfg).FP)
			}
		},
		func() { r.rel = fmt.Sprint(o.Relevance(q).Ordinals()) },
		func() { r.batch = o.WhatIfBatch(q, cfgs) },
		func() {
			for _, cfg := range cfgs {
				r.peek = append(r.peek, o.PeekCost(q, cfg))
			}
		},
		func() { r.base = o.BaseCost(q) },
	}
	for i := range ops {
		ops[(i+rot)%len(ops)]()
	}
	return r
}

// TestLazyFirstTouchesConcurrent makes the first touches of many queries
// from 8 goroutines at once on one fresh Real-D optimizer — each goroutine
// touches four queries every goroutine shares and three of its own, in a
// goroutine-specific operation order — and checks every result against a
// sequential run on another fresh optimizer, and the counted calls against
// the sequential count. Under -race it also checks that building a query's
// relevance and a table's masks on first need is free of data races.
func TestLazyFirstTouchesConcurrent(t *testing.T) {
	w := workload.ByName("real-d")
	cands := generatedCandidates(w)
	ref := New(w.DB, cands)
	cfgs := make([][]iset.Set, len(w.Queries))
	for qi, q := range w.Queries {
		cfgs[qi] = lazyConfigs(ref, q, int64(qi)+7, 11)
	}
	const workers, shared, own = 8, 4, 3
	if len(w.Queries) < shared+workers*own {
		t.Fatalf("real-d has %d queries, want at least %d", len(w.Queries), shared+workers*own)
	}
	seq := New(w.DB, cands)
	want := make([]lazyResult, shared+workers*own)
	for qi := range want {
		want[qi] = touchQuery(seq, w.Queries[qi], cfgs[qi], 0)
	}

	o := New(w.DB, cands)
	got := make([][]lazyResult, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qis []int
			for qi := 0; qi < shared; qi++ {
				qis = append(qis, qi)
			}
			for j := 0; j < own; j++ {
				qis = append(qis, shared+g*own+j)
			}
			got[g] = make([]lazyResult, len(want))
			for _, qi := range qis {
				got[g][qi] = touchQuery(o, w.Queries[qi], cfgs[qi], g)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for qi, r := range got[g] {
			if r.keyFP == nil {
				continue
			}
			if fmt.Sprint(r) != fmt.Sprint(want[qi]) {
				t.Fatalf("goroutine %d, query %s:\n  got  %v\n  want %v", g, w.Queries[qi].ID, r, want[qi])
			}
		}
	}
	// Every distinct projected pair is computed once, however many
	// goroutines ask for it.
	if o.Calls() != seq.Calls() {
		t.Fatalf("concurrent first touches counted %d calls, sequential %d", o.Calls(), seq.Calls())
	}
}
