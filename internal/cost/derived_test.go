package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// tinyWorkload builds a 3-query workload over one table; costs are supplied
// manually so derived-cost semantics can be checked exactly.
func tinyWorkload() *workload.Workload { return nQueryWorkload(3) }

// nQueryWorkload builds an n-query workload over one table.
func nQueryWorkload(n int) *workload.Workload {
	db := schema.NewDatabase("t")
	db.AddTable(schema.NewTable("T", 100, schema.Column{Name: "x", NDV: 10, Width: 4}))
	var qs []*workload.Query
	for i := 0; i < n; i++ {
		b := workload.NewBuilder(fmt.Sprintf("q%d", i))
		r := b.Ref("T")
		b.Proj(r, "x")
		qs = append(qs, b.Build())
	}
	return &workload.Workload{Name: "t", DB: db, Queries: qs}
}

func newStore() (*DerivedStore, *workload.Workload) {
	w := tinyWorkload()
	return NewDerivedStore(w, []float64{100, 200, 300}), w
}

func TestDerivedDefaultsToBase(t *testing.T) {
	ds, _ := newStore()
	if got := ds.Query(0, iset.FromOrdinals(1, 2)); got != 100 {
		t.Fatalf("no entries: d = %v, want base 100", got)
	}
	if got := ds.BaseWorkload(); got != 600 {
		t.Fatalf("BaseWorkload = %v, want 600", got)
	}
}

func TestDerivedIsMinOverKnownSubsets(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(1), 80)
	ds.Record(0, iset.FromOrdinals(2), 60)
	ds.Record(0, iset.FromOrdinals(1, 2), 40)
	ds.Record(0, iset.FromOrdinals(3), 10)

	cases := []struct {
		cfg  iset.Set
		want float64
	}{
		{iset.FromOrdinals(1), 80},
		{iset.FromOrdinals(2), 60},
		{iset.FromOrdinals(1, 2), 40},    // exact match wins
		{iset.FromOrdinals(1, 2, 9), 40}, // superset inherits
		{iset.FromOrdinals(9), 100},      // nothing known: base
		{iset.FromOrdinals(3, 1), 10},    // best subset wins
		{iset.Set{}, 100},                // empty: base
	}
	for _, c := range cases {
		if got := ds.Query(0, c.cfg); got != c.want {
			t.Errorf("d(q0, %v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// Derived cost never goes below the smallest recorded cost and never above
// base — and equals the what-if cost when it is known exactly.
func TestDerivedUpperBoundsKnownCost(t *testing.T) {
	ds, _ := newStore()
	ds.Record(1, iset.FromOrdinals(4), 170)
	if got := ds.Query(1, iset.FromOrdinals(4)); got != 170 {
		t.Fatalf("known pair should return exactly its cost, got %v", got)
	}
	if got := ds.Query(1, iset.FromOrdinals(5)); got != 200 {
		t.Fatalf("unknown pair should return base, got %v", got)
	}
}

func TestQueryWithMatchesFullScan(t *testing.T) {
	ds, _ := newStore()
	rng := rand.New(rand.NewSource(5))
	// Populate with random entries.
	for i := 0; i < 60; i++ {
		var cfg iset.Set
		for cfg.Len() == 0 {
			for j := 0; j < 6; j++ {
				if rng.Intn(2) == 0 {
					cfg.Add(j)
				}
			}
		}
		ds.Record(rng.Intn(3), cfg, 10+290*rng.Float64())
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var base iset.Set
		for j := 0; j < 6; j++ {
			if rng.Intn(2) == 0 {
				base.Add(j)
			}
		}
		add := rng.Intn(6)
		base.Remove(add) // ensure add is genuinely new
		qi := rng.Intn(3)
		dBase := ds.Query(qi, base)
		fast := ds.QueryWith(qi, base, dBase, add)
		slow := ds.Query(qi, base.With(add))
		return math.Abs(fast-slow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTouchedQueries(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(7), 50)
	ds.Record(2, iset.FromOrdinals(7, 8), 60)
	tq := ds.TouchedQueries(7)
	if len(tq) != 2 || tq[0] != 0 || tq[1] != 2 {
		t.Fatalf("TouchedQueries(7) = %v", tq)
	}
	if got := ds.TouchedQueries(99); len(got) != 0 {
		t.Fatalf("untouched ordinal: %v", got)
	}
}

func TestImprovementAndBenefit(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(1), 50) // q0: 100 -> 50
	cfg := iset.FromOrdinals(1)
	// d(W,cfg) = 50 + 200 + 300 = 550; base 600.
	if got := ds.Workload(cfg); got != 550 {
		t.Fatalf("Workload = %v", got)
	}
	// b(W, cfg) = d(W, ∅) − d(W, cfg) (Section 3.1.2).
	if got := ds.BaseWorkload() - ds.Workload(cfg); got != 50 {
		t.Fatalf("Benefit = %v", got)
	}
	if got := ds.Improvement(cfg); math.Abs(got-50.0/600) > 1e-12 {
		t.Fatalf("Improvement = %v", got)
	}
}

func TestWeightedWorkloadCost(t *testing.T) {
	w := tinyWorkload()
	w.Queries[0].Weight = 3
	ds := NewDerivedStore(w, []float64{100, 200, 300})
	if got := ds.BaseWorkload(); got != 800 {
		t.Fatalf("weighted base = %v, want 800", got)
	}
}

// singletonDerived computes d(q_i, C) restricted to singleton subsets
// (Equation 2), the derivation the theory of Section 3.1.2 assumes.
func singletonDerived(ds *DerivedStore, qi int, cfg iset.Set) float64 {
	d := ds.base[qi]
	for _, e := range ds.byQ[qi].entries {
		if len(e.set) == 1 && e.cost < d && cfg.Has(int(e.set[0])) {
			d = e.cost
		}
	}
	return d
}

func TestSingletonDerivedIgnoresLargerEntries(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(1), 80)
	ds.Record(0, iset.FromOrdinals(1, 2), 10) // pair: excluded by Eq. 2
	if got := singletonDerived(ds, 0, iset.FromOrdinals(1, 2)); got != 80 {
		t.Fatalf("singleton derived = %v, want 80", got)
	}
}

// Theorem 1 groundwork (Lemma 1): under singleton derivation, the marginal
// benefit Δ(q, X, z) is antitone in X — checked over random cost tables.
func TestSubmodularityUnderSingletonDerivation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := tinyWorkload()
		base := 100.0
		ds := NewDerivedStore(w, []float64{base, base, base})
		// Record singleton costs for 6 indexes on every query.
		nIdx := 6
		for qi := 0; qi < 3; qi++ {
			for z := 0; z < nIdx; z++ {
				ds.Record(qi, iset.FromOrdinals(z), base*rng.Float64())
			}
		}
		singleton := func(qi int, cfg iset.Set) float64 { return singletonDerived(ds, qi, cfg) }
		benefit := func(cfg iset.Set) float64 {
			t := 0.0
			for qi := 0; qi < 3; qi++ {
				t += base - singleton(qi, cfg)
			}
			return t
		}
		// Random X ⊆ Y and z ∉ Y.
		var x, y iset.Set
		for i := 0; i < nIdx-1; i++ {
			if rng.Intn(2) == 0 {
				y.Add(i)
				if rng.Intn(2) == 0 {
					x.Add(i)
				}
			}
		}
		z := nIdx - 1
		dx := benefit(x.With(z)) - benefit(x)
		dy := benefit(y.With(z)) - benefit(y)
		// Submodularity: marginal gain shrinks as the set grows. Also check
		// monotonicity and non-negativity of the benefit.
		return dx >= dy-1e-9 && benefit(y) >= benefit(x)-1e-9 && benefit(x) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsNoEntries(t *testing.T) {
	ds, _ := newStore()
	lo, hi := ds.Bounds(0, iset.FromOrdinals(1, 2))
	if lo != 0 || hi != 100 {
		t.Fatalf("Bounds with no entries = (%v, %v), want (0, base=100)", lo, hi)
	}
	lo, hi = ds.Bounds(1, iset.Set{})
	if lo != 0 || hi != 200 {
		t.Fatalf("Bounds(∅) = (%v, %v), want (0, 200)", lo, hi)
	}
}

func TestBoundsFromSubsetsAndSupersets(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(1), 80)       // subset of {1,2}
	ds.Record(0, iset.FromOrdinals(2), 70)       // subset: tightens hi
	ds.Record(0, iset.FromOrdinals(1, 2, 3), 40) // superset: raises lo
	ds.Record(0, iset.FromOrdinals(1, 2, 4), 55) // superset: best lo
	ds.Record(0, iset.FromOrdinals(3), 65)       // neither: ignored
	lo, hi := ds.Bounds(0, iset.FromOrdinals(1, 2))
	if lo != 55 || hi != 70 {
		t.Fatalf("Bounds = (%v, %v), want (55, 70)", lo, hi)
	}
	// With cfg itself recorded the interval collapses, even though a cheaper
	// strict superset exists.
	ds.Record(0, iset.FromOrdinals(1, 2), 60)
	lo, hi = ds.Bounds(0, iset.FromOrdinals(1, 2))
	if lo != 60 || hi != 60 {
		t.Fatalf("recorded cfg: Bounds = (%v, %v), want (60, 60)", lo, hi)
	}
}

// The interval always contains the cost monotonicity permits: lo ≤ hi, hi
// equals Query (Equation 1), and lo never exceeds any recorded subset cost.
func TestBoundsConsistentWithQuery(t *testing.T) {
	ds, _ := newStore()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		var cfg iset.Set
		for cfg.Len() == 0 {
			for j := 0; j < 8; j++ {
				if rng.Intn(2) == 0 {
					cfg.Add(j)
				}
			}
		}
		// Monotone-ish random costs: bigger sets cheaper on average, but the
		// store must behave for arbitrary recorded values anyway.
		ds.Record(rng.Intn(3), cfg, 300-30*float64(cfg.Len())*rng.Float64())
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cfg iset.Set
		for j := 0; j < 8; j++ {
			if rng.Intn(2) == 0 {
				cfg.Add(j)
			}
		}
		qi := rng.Intn(3)
		lo, hi := ds.Bounds(qi, cfg)
		return lo <= hi && hi == ds.Query(qi, cfg) && lo >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTouchedQueriesDedupInterleaved pins the interleaved-recording fix:
// recording q0, then q1, then q0 again for the same ordinal must list q0 in
// TouchedQueries exactly once. Dedup rests on true per-query membership
// (the query's posting slot map); when it only checked the last appended
// query, interleaving duplicated q0 and every incremental consumer
// (greedy's fast path, the early-stopping checker) double-counted its delta.
func TestTouchedQueriesDedupInterleaved(t *testing.T) {
	ds, _ := newStore()
	ds.Record(0, iset.FromOrdinals(7), 50)
	ds.Record(1, iset.FromOrdinals(7), 150)
	ds.Record(0, iset.FromOrdinals(7, 8), 40) // q0 again, interleaved
	tq := ds.TouchedQueries(7)
	if len(tq) != 2 || tq[0] != 0 || tq[1] != 1 {
		t.Fatalf("TouchedQueries(7) = %v, want [0 1] (q0 deduped)", tq)
	}
	// Same-query consecutive recording stays deduped too.
	ds.Record(2, iset.FromOrdinals(9), 250)
	ds.Record(2, iset.FromOrdinals(9, 7), 240)
	if tq := ds.TouchedQueries(9); len(tq) != 1 || tq[0] != 2 {
		t.Fatalf("TouchedQueries(9) = %v, want [2]", tq)
	}
}

func TestFloorRecordingAndBounds(t *testing.T) {
	ds, _ := newStore()
	if _, ok := ds.Floor(0); ok {
		t.Fatal("Floor before RecordFloor should report !ok")
	}
	ds.RecordFloor(0, 30)
	if c, ok := ds.Floor(0); !ok || c != 30 {
		t.Fatalf("Floor(0) = (%v, %v), want (30, true)", c, ok)
	}
	if _, ok := ds.Floor(1); ok {
		t.Fatal("Floor(1) should stay unprobed")
	}
	// Floors are not ordinary entries: they must not appear in TouchedQueries
	// or the entry list, only clamp Bounds' lower end.
	if n := ds.Entries(0); n != 0 {
		t.Fatalf("RecordFloor added %d entries, want 0", n)
	}
	lo, hi := ds.Bounds(0, iset.FromOrdinals(1))
	if lo != 30 || hi != 100 {
		t.Fatalf("Bounds with floor = (%v, %v), want (30, 100)", lo, hi)
	}
	// A recorded cost at or below the floor still wins the hi side; lo never
	// exceeds hi.
	ds.Record(0, iset.FromOrdinals(1), 30)
	lo, hi = ds.Bounds(0, iset.FromOrdinals(1))
	if lo != 30 || hi != 30 {
		t.Fatalf("Bounds with floor+entry = (%v, %v), want (30, 30)", lo, hi)
	}
}

func TestEntryAt(t *testing.T) {
	ds, _ := newStore()
	ds.Record(1, iset.FromOrdinals(4), 170)
	ds.Record(1, iset.FromOrdinals(4, 5), 160)
	if n := ds.Entries(1); n != 2 {
		t.Fatalf("Entries(1) = %d, want 2", n)
	}
	set, c := ds.EntryAt(1, 0)
	if c != 170 || !set.Contains(4) || set.Contains(5) {
		t.Fatalf("EntryAt(1, 0) = (%v, %v), want ({4}, 170)", set, c)
	}
	set, c = ds.EntryAt(1, 1)
	if c != 160 || !set.Contains(4) || !set.Contains(5) {
		t.Fatalf("EntryAt(1, 1) = (%v, %v), want ({4,5}, 160)", set, c)
	}
}
