package whatif

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// fixture builds a small two-table workload with a join, filters, and a
// sort, plus a spread of candidate indexes.
func fixture() (*workload.Workload, []schema.Index) {
	db := schema.NewDatabase("fx")
	db.AddTable(schema.NewTable("big", 1_000_000,
		schema.Column{Name: "id", NDV: 1_000_000, Width: 8},
		schema.Column{Name: "fk", NDV: 10_000, Width: 8},
		schema.Column{Name: "v", NDV: 100, Width: 8},
		schema.Column{Name: "pay", NDV: 1_000_000, Width: 120},
	))
	db.AddTable(schema.NewTable("small", 10_000,
		schema.Column{Name: "id", NDV: 10_000, Width: 8},
		schema.Column{Name: "attr", NDV: 50, Width: 8},
	))
	b := workload.NewBuilder("q1")
	bg := b.Ref("big")
	sm := b.Ref("small")
	b.Eq(sm, "attr", 0.02).Join(sm, "id", bg, "fk").Proj(bg, "v").Sort(bg, "v")
	q1 := b.Build()

	b2 := workload.NewBuilder("q2")
	bg2 := b2.Ref("big")
	b2.Range(bg2, "v", 0.1).Proj(bg2, "pay")
	q2 := b2.Build()

	w := &workload.Workload{Name: "fx", DB: db, Queries: []*workload.Query{q1, q2}}
	cands := []schema.Index{
		{Table: "big", Key: []string{"fk"}, Include: []string{"v"}},
		{Table: "big", Key: []string{"fk"}},
		{Table: "big", Key: []string{"v"}, Include: []string{"pay"}},
		{Table: "big", Key: []string{"v"}},
		{Table: "small", Key: []string{"attr"}, Include: []string{"id"}},
		{Table: "small", Key: []string{"id"}, Include: []string{"attr"}},
	}
	return w, cands
}

func TestBaseCostPositiveAndCached(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	c1 := o.BaseCost(w.Queries[0])
	if c1 <= 0 {
		t.Fatalf("base cost = %v", c1)
	}
	if o.Calls() != 0 {
		t.Fatal("BaseCost must not count what-if calls")
	}
	if c2 := o.BaseCost(w.Queries[0]); c2 != c1 {
		t.Fatal("BaseCost not cached/deterministic")
	}
}

func TestWhatIfCountsAndCaches(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	cfg := iset.FromOrdinals(0, 4)
	q := w.Queries[0]
	if o.Known(q, cfg) {
		t.Fatal("cost should be unknown before any call")
	}
	c1 := o.WhatIf(q, cfg)
	if o.Calls() != 1 || o.CacheHits() != 0 {
		t.Fatalf("calls=%d hits=%d after first call", o.Calls(), o.CacheHits())
	}
	if !o.Known(q, cfg) {
		t.Fatal("cost should be cached after the call")
	}
	c2 := o.WhatIf(q, cfg)
	if c2 != c1 {
		t.Fatal("cached answer differs")
	}
	if o.Calls() != 1 || o.CacheHits() != 1 {
		t.Fatalf("calls=%d hits=%d after cached call", o.Calls(), o.CacheHits())
	}
}

func TestIndexesReduceCost(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q1 := w.Queries[0]
	base := o.BaseCost(q1)
	all := iset.FromOrdinals(0, 1, 2, 3, 4, 5)
	tuned := o.PeekCost(q1, all)
	if tuned >= base {
		t.Fatalf("full configuration should improve: base=%v tuned=%v", base, tuned)
	}
	// The selective filter + covering join index should give a large win
	// (INL replaces the big-table scan).
	if tuned > base/3 {
		t.Fatalf("expected >3x improvement, base=%v tuned=%v", base, tuned)
	}
}

func TestCoveringScanBeatsHeapScan(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q2 := w.Queries[1] // range filter on big.v projecting pay
	base := o.BaseCost(q2)
	withCover := o.PeekCost(q2, iset.FromOrdinals(2)) // big(v)+(pay)
	if withCover >= base {
		t.Fatalf("covering seek should improve q2: base=%v with=%v", base, withCover)
	}
	// The non-covering variant forces heap lookups and should be worth less.
	withBare := o.PeekCost(q2, iset.FromOrdinals(3)) // big(v)
	if withCover >= withBare {
		t.Fatalf("covering index should beat bare index: cover=%v bare=%v", withCover, withBare)
	}
}

// Monotonicity (Assumption 1): adding indexes never increases cost.
func TestMonotonicityProperty(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c1 iset.Set
		for i := range cands {
			if rng.Intn(2) == 0 {
				c1.Add(i)
			}
		}
		c2 := c1.Clone()
		for i := range cands {
			if rng.Intn(2) == 0 {
				c2.Add(i)
			}
		}
		for _, q := range w.Queries {
			if o.PeekCost(q, c2) > o.PeekCost(q, c1)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity must also hold on the full generated workloads with their
// real candidate sets.
func TestMonotonicityOnGeneratedWorkloads(t *testing.T) {
	for _, name := range []string{"tpch", "job"} {
		w := workload.ByName(name)
		cands := candidatesFor(w)
		o := New(w.DB, cands)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			var c1 iset.Set
			for len(c1.Ordinals()) < 5 {
				c1.Add(rng.Intn(len(cands)))
			}
			c2 := c1.With(rng.Intn(len(cands)))
			q := w.Queries[rng.Intn(len(w.Queries))]
			if o.PeekCost(q, c2) > o.PeekCost(q, c1)+1e-9 {
				t.Fatalf("%s: monotonicity violated for %s: %v ⊂ %v", name, q.ID, c1, c2)
			}
		}
	}
}

// candidatesFor builds a simple candidate list without importing candgen
// (which would create an import cycle in tests at this layer): one covering
// index per (ref, leading need column).
func candidatesFor(w *workload.Workload) []schema.Index {
	seen := make(map[string]bool)
	var out []schema.Index
	for _, q := range w.Queries {
		for ri := range q.Refs {
			r := &q.Refs[ri]
			if len(r.Need) == 0 {
				continue
			}
			for _, lead := range r.Need {
				var inc []string
				for _, c := range r.Need {
					if c != lead {
						inc = append(inc, c)
					}
				}
				ix := schema.Index{Table: r.Table, Key: []string{lead}, Include: inc}
				if !seen[ix.ID()] {
					seen[ix.ID()] = true
					out = append(out, ix)
				}
			}
		}
	}
	if len(out) > 150 {
		out = out[:150]
	}
	return out
}

func TestCostDeterministic(t *testing.T) {
	w, cands := fixture()
	o1 := New(w.DB, cands)
	o2 := New(w.DB, cands)
	cfg := iset.FromOrdinals(0, 2, 4)
	for _, q := range w.Queries {
		if o1.PeekCost(q, cfg) != o2.PeekCost(q, cfg) {
			t.Fatalf("cost not deterministic for %s", q.ID)
		}
	}
}

func TestConfigSizeBytes(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	cfg := iset.FromOrdinals(0, 4)
	want := cands[0].SizeBytes(w.DB) + cands[4].SizeBytes(w.DB)
	if got := o.ConfigSizeBytes(cfg); got != want {
		t.Fatalf("ConfigSizeBytes = %d, want %d", got, want)
	}
}

func TestExplainMentionsChosenPaths(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	out := o.Explain(w.Queries[0], iset.FromOrdinals(0, 4))
	if out == "" {
		t.Fatal("empty explain")
	}
}

func TestEmptyQueryCostsNothing(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	if got := o.PeekCost(&workload.Query{ID: "empty"}, iset.Set{}); got != 0 {
		t.Fatalf("empty query cost = %v", got)
	}
}

func TestDisconnectedRefsAreAdditive(t *testing.T) {
	w, cands := fixture()
	// Cross product: two refs, no join.
	b := workload.NewBuilder("cross")
	r1 := b.Ref("big")
	r2 := b.Ref("small")
	b.Proj(r1, "v").Proj(r2, "attr")
	q := b.Build()
	o := New(w.DB, cands)
	single := workload.NewBuilder("s1")
	sr := single.Ref("big")
	single.Proj(sr, "v")
	qs := single.Build()
	if o.PeekCost(q, iset.Set{}) <= o.PeekCost(qs, iset.Set{}) {
		t.Fatal("disconnected second ref should add cost")
	}
}

func TestPlanStructure(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	q := w.Queries[0]
	cfg := iset.FromOrdinals(0, 4)
	p := o.Plan(q, cfg)
	if p.QueryID != q.ID {
		t.Fatalf("plan query = %q", p.QueryID)
	}
	if len(p.Operators) != len(q.Refs) {
		t.Fatalf("operators = %d, want one per ref", len(p.Operators))
	}
	if p.TotalCost != o.PeekCost(q, cfg) {
		t.Fatalf("plan cost %v != PeekCost %v", p.TotalCost, o.PeekCost(q, cfg))
	}
	// The covering join index (ordinal 0) should drive an INL probe.
	if !p.UsesIndex(0) {
		t.Fatalf("plan does not use the join index:\n%s", p)
	}
	// Pipeline seeds with the selective small table.
	if p.Operators[0].Table != "small" {
		t.Fatalf("pipeline seed = %s, want small (filtered)", p.Operators[0].Table)
	}
}

func TestPlanJSONRoundTrips(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	p := o.Plan(w.Queries[0], iset.FromOrdinals(0))
	s, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal([]byte(s), &back); err != nil {
		t.Fatal(err)
	}
	if back.QueryID != p.QueryID || len(back.Operators) != len(p.Operators) {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestPlanStringMentionsOperators(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	out := o.Plan(w.Queries[0], iset.Set{}).String()
	if !strings.Contains(out, "heap-scan") || !strings.Contains(out, "cost=") {
		t.Fatalf("plan string = %q", out)
	}
}

// TestConcurrentWhatIfSharedOptimizer hammers one optimizer from many
// goroutines — the shared-oracle scenario of the experiment suite. It fails
// under -race against the old single-map implementation. Counter totals are
// exact: every request is either the insert that counts the call or a cache
// hit, so calls == distinct pairs and calls + hits == requests.
func TestConcurrentWhatIfSharedOptimizer(t *testing.T) {
	w, cands := fixture()
	o := New(w.DB, cands)
	cfgs := []iset.Set{
		iset.FromOrdinals(0),
		iset.FromOrdinals(1, 4),
		iset.FromOrdinals(0, 2, 5),
		iset.FromOrdinals(3),
		iset.FromOrdinals(0, 1, 2, 3, 4, 5),
	}
	want := make(map[string]float64)
	projected := make(map[Pair]bool)
	for _, q := range w.Queries {
		for _, cfg := range cfgs {
			want[q.ID+"|"+cfg.Key()] = o.PeekCost(q, cfg)
			projected[o.PairOf(q, cfg)] = true
		}
	}

	const goroutines, rounds = 16, 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := w.Queries[(g+i)%len(w.Queries)]
				cfg := cfgs[(g*7+i)%len(cfgs)]
				if key := q.ID + "|" + cfg.Key(); o.WhatIf(q, cfg) != want[key] {
					errs <- key
					return
				}
				o.BaseCost(q)
				o.Known(q, cfg)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if key, bad := <-errs, false; key != "" || bad {
		t.Fatalf("wrong concurrent answer for %s", key)
	}
	// The optimizer computes once per distinct *projected* pair: configs
	// differing only in query-irrelevant indexes share one cache entry.
	distinct := int64(len(projected))
	if o.Calls() != distinct {
		t.Fatalf("calls = %d, want %d (one per distinct projected pair)", o.Calls(), distinct)
	}
	if total := o.Calls() + o.CacheHits(); total != goroutines*rounds {
		t.Fatalf("calls+hits = %d, want %d", total, goroutines*rounds)
	}
}
