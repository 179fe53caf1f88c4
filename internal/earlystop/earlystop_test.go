package earlystop

import (
	"math"
	"math/rand"
	"testing"

	"indextune/internal/cost"
	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// tinyWorkload builds a 3-query workload with manually supplied base costs,
// mirroring the cost package's test fixture.
func tinyWorkload() (*workload.Workload, []float64) {
	db := schema.NewDatabase("t")
	db.AddTable(schema.NewTable("T", 100, schema.Column{Name: "x", NDV: 10, Width: 4}))
	var qs []*workload.Query
	for _, id := range []string{"q0", "q1", "q2"} {
		b := workload.NewBuilder(id)
		r := b.Ref("T")
		b.Proj(r, "x")
		qs = append(qs, b.Build())
	}
	return &workload.Workload{Name: "t", DB: db, Queries: qs}, []float64{100, 200, 300}
}

func newChecker() (*Checker, *cost.DerivedStore, *workload.Workload) {
	w, base := tinyWorkload()
	ds := cost.NewDerivedStore(w, base)
	return New(ds, w), ds, w
}

// freshGap is the bound gap's definition, (Σ w·d(q, cfg) − Σ w·floor(q)) /
// cost(W, ∅) with each sum in query order, read through the store's
// per-query Query and Floor.
func freshGap(ds *cost.DerivedStore, w *workload.Workload, cfg iset.Set) float64 {
	dSum, floSum := 0.0, 0.0
	for qi, q := range w.Queries {
		dSum += q.EffectiveWeight() * ds.Query(qi, cfg)
		if f, ok := ds.Floor(qi); ok {
			floSum += q.EffectiveWeight() * f
		}
	}
	return (dSum - floSum) / ds.BaseWorkload()
}

// With nothing probed and nothing recorded, the entire baseline is headroom:
// the gap is 1 (floors default to 0, a trivially sound lower bound).
func TestGapFullHeadroomInitially(t *testing.T) {
	c, ds, _ := newChecker()
	if got := c.Gap(iset.Set{}); got != 1 {
		t.Fatalf("initial gap = %v, want 1", got)
	}
	if got := ds.Improvement(iset.Set{}); got != 0 {
		t.Fatalf("initial improvement = %v, want 0", got)
	}
}

// Floors raise the lower bound; recorded entries lower the achieved cost.
// When the tracked configuration's derived cost meets the floor sum exactly,
// the gap collapses to 0.
func TestGapCollapsesWhenDerivedMeetsFloors(t *testing.T) {
	c, ds, _ := newChecker()
	// Universe probes: floors at 50/100/150 (half of base). baseW = 600.
	ds.RecordFloor(0, 50)
	ds.RecordFloor(1, 100)
	ds.RecordFloor(2, 150)
	want := (600.0 - 300.0) / 600.0
	if got := c.Gap(iset.Set{}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("gap with floors only = %v, want %v", got, want)
	}
	// Record entries reaching the floors under config {1}.
	ds.Record(0, iset.FromOrdinals(1), 50)
	ds.Record(1, iset.FromOrdinals(1), 100)
	ds.Record(2, iset.FromOrdinals(1), 150)
	if got := c.Gap(iset.FromOrdinals(1)); got != 0 {
		t.Fatalf("gap at floors = %v, want 0", got)
	}
	if got, want := ds.Improvement(iset.FromOrdinals(1)), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("improvement = %v, want %v", got, want)
	}
}

// A query without a probed floor contributes its full remaining cost as
// headroom, so partial probing only ever makes the gap conservative (larger).
func TestUnprobedQueriesStayConservative(t *testing.T) {
	c, ds, _ := newChecker()
	ds.RecordFloor(0, 50)
	partial := c.Gap(iset.Set{})
	ds.RecordFloor(1, 100)
	ds.RecordFloor(2, 150)
	full := c.Gap(iset.Set{})
	if !(partial > full) {
		t.Fatalf("partial-probe gap %v should exceed fully-probed gap %v", partial, full)
	}
}

// The checker's gap is exactly its definition at every point of a random
// interleaving of recordings, floor probes, configuration growth and
// arbitrary configuration switches, with one checker reused throughout.
func TestGapEqualsFormula(t *testing.T) {
	w, base := tinyWorkload()
	ds := cost.NewDerivedStore(w, base)
	c := New(ds, w)
	rng := rand.New(rand.NewSource(42))
	cfg := iset.Set{}
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0: // record a random entry (costs stay monotone-ish but arbitrary)
			var e iset.Set
			for e.Len() == 0 {
				for j := 0; j < 6; j++ {
					if rng.Intn(3) == 0 {
						e.Add(j)
					}
				}
			}
			qi := rng.Intn(3)
			ds.Record(qi, e, base[qi]*(0.2+0.8*rng.Float64()))
		case 1: // probe a floor (only ever tightens downward-compatible values)
			qi := rng.Intn(3)
			ds.RecordFloor(qi, base[qi]*0.1*(1+rng.Float64()))
		case 2: // grow the configuration
			cfg = cfg.Clone()
			cfg.Add(rng.Intn(6))
		case 3: // arbitrary switch (MCTS best-config move)
			var n iset.Set
			for j := 0; j < 6; j++ {
				if rng.Intn(2) == 0 {
					n.Add(j)
				}
			}
			cfg = n
		}
		if got, want := c.Gap(cfg), freshGap(ds, w, cfg); got != want {
			t.Fatalf("step %d: gap %v != formula %v (cfg %v)", step, got, want, cfg)
		}
	}
}

// The gap upper-bounds the remaining improvement: for any configuration the
// enumerator could still reach, derived improvement never exceeds achieved
// improvement plus the gap.
func TestGapBoundsRemainingImprovement(t *testing.T) {
	w, base := tinyWorkload()
	ds := cost.NewDerivedStore(w, base)
	rng := rand.New(rand.NewSource(7))
	// Ground-truth costs drop monotonically with configuration size; floors
	// are the cost of the full universe {0..5}.
	truth := func(qi int, cfg iset.Set) float64 {
		return base[qi] * (1 - 0.1*float64(cfg.Len()))
	}
	univ := iset.FromOrdinals(0, 1, 2, 3, 4, 5)
	for qi := range base {
		ds.RecordFloor(qi, truth(qi, univ))
	}
	for i := 0; i < 60; i++ {
		var e iset.Set
		for j := 0; j < 6; j++ {
			if rng.Intn(2) == 0 {
				e.Add(j)
			}
		}
		qi := rng.Intn(3)
		ds.Record(qi, e, truth(qi, e))
	}
	c := New(ds, w)
	cur := iset.FromOrdinals(0)
	gap := c.Gap(cur)
	achieved := ds.Improvement(cur)
	for trial := 0; trial < 100; trial++ {
		var f iset.Set
		for j := 0; j < 6; j++ {
			if rng.Intn(2) == 0 {
				f.Add(j)
			}
		}
		future := 1 - ds.Workload(f)/ds.BaseWorkload()
		if future > achieved+gap+1e-9 {
			t.Fatalf("future improvement %v exceeds achieved %v + gap %v for %v",
				future, achieved, gap, f)
		}
	}
}
