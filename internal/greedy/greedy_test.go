package greedy

import (
	"math"
	"math/rand"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace/tracetest"
	"indextune/internal/workload"
)

func session(t *testing.T, wname string, k, budget int) *search.Session {
	t.Helper()
	w := workload.ByName(wname)
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	return search.NewSession(w, cands, opt, k, budget, 1)
}

// layout runs alg on s and returns its charged calls in commit order.
func layout(t *testing.T, s *search.Session, alg search.Algorithm) []tracetest.Cell {
	t.Helper()
	log := tracetest.New()
	s.Trace = log.Rec
	alg.Enumerate(s)
	return log.Cells(t)
}

func TestVanillaRespectsBudgetAndK(t *testing.T) {
	s := session(t, "tpch", 5, 50)
	cfg := Vanilla{}.Enumerate(s)
	if cfg.Len() > 5 {
		t.Fatalf("|cfg| = %d > K", cfg.Len())
	}
	if s.Used() > 50 {
		t.Fatalf("used %d > budget", s.Used())
	}
}

func TestTwoPhaseRespectsBudgetAndK(t *testing.T) {
	s := session(t, "tpch", 5, 50)
	cfg := TwoPhase{}.Enumerate(s)
	if cfg.Len() > 5 || s.Used() > 50 {
		t.Fatalf("|cfg|=%d used=%d", cfg.Len(), s.Used())
	}
}

func TestAutoAdminOnlyCallsAtomicConfigs(t *testing.T) {
	s := session(t, "tpch", 5, 200)
	cells := layout(t, s, AutoAdmin{})
	pairs := make(map[[2]int]bool)
	for _, p := range s.Cands.AtomicPairs {
		pairs[p] = true
	}
	for _, cell := range cells {
		switch len(cell.Config) {
		case 0, 1:
		case 2:
			key := [2]int{int(cell.Config[0]), int(cell.Config[1])}
			if !pairs[key] {
				t.Fatalf("non-atomic pair %v received a what-if call", cell.Config)
			}
		default:
			t.Fatalf("configuration of size %d received a what-if call", len(cell.Config))
		}
	}
}

func TestGreedyImprovesWithBudget(t *testing.T) {
	lo := session(t, "tpch", 10, 50)
	hi := session(t, "tpch", 10, 2000)
	cfgLo := Vanilla{}.Enumerate(lo)
	cfgHi := Vanilla{}.Enumerate(hi)
	impLo := lo.OracleImprovement(cfgLo)
	impHi := hi.OracleImprovement(cfgHi)
	if impHi < impLo-0.05 {
		t.Fatalf("more budget should not hurt much: lo=%v hi=%v", impLo, impHi)
	}
}

// The derived-only fast path must agree with a straightforward
// reimplementation of Algorithm 1 over Query().
func TestDerivedFastPathMatchesNaive(t *testing.T) {
	s := session(t, "tpch", 5, 300)
	// Populate the derived store via a vanilla run.
	Vanilla{}.Enumerate(s)

	fastCfg, fastCost := DerivedOnly(s, 5)

	// Naive Algorithm 1 with full derived scans.
	naive := iset.Set{}
	naiveCost := s.Derived.BaseWorkload()
	for naive.Len() < 5 {
		best, bestCost := -1, naiveCost
		for ord := 0; ord < s.NumCandidates(); ord++ {
			if naive.Has(ord) {
				continue
			}
			c := s.Derived.Workload(naive.With(ord))
			if c < bestCost {
				best, bestCost = ord, c
			}
		}
		if best < 0 {
			break
		}
		naive.Add(best)
		naiveCost = bestCost
	}
	if math.Abs(fastCost-naiveCost) > 1e-6*naiveCost {
		t.Fatalf("fast path cost %v != naive %v (cfg %v vs %v)", fastCost, naiveCost, fastCfg, naive)
	}
}

// Theorem 3 (order insensitivity): permuting the candidate enumeration
// order, with the same resulting layout outcome, yields a configuration with
// the same derived workload cost. We verify on a budget large enough that
// every singleton is evaluated, so permuted runs produce identical outcomes.
func TestOrderInsensitivity(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	n := len(cands.Candidates)
	m := len(w.Queries)
	budget := n*m + 5*n*m // enough for several full greedy steps

	run := func(perm []int) float64 {
		opt := search.NewOptimizer(w, cands)
		s := search.NewSession(w, cands, opt, 3, budget, 1)
		cfg, _ := Search(s, allQueries(s), perm, iset.Set{}, 3, EvalWhatIf)
		return s.Derived.Workload(cfg)
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	costA := run(identity)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		perm := rng.Perm(n)
		costB := run(perm)
		if math.Abs(costA-costB)/costA > 1e-9 {
			t.Fatalf("trial %d: permuted enumeration changed the outcome: %v vs %v", trial, costA, costB)
		}
	}
}

// Theorem 2: with exact costs and singleton-derived benefit, greedy achieves
// at least (1 - 1/e) of the optimal benefit. Verified against brute force on
// a small random instance.
func TestGreedyApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nIdx, nQ, k := 8, 4, 3
		base := make([]float64, nQ)
		cost := make([][]float64, nQ)
		for qi := range cost {
			base[qi] = 50 + 150*rng.Float64()
			cost[qi] = make([]float64, nIdx)
			for z := range cost[qi] {
				cost[qi][z] = base[qi] * rng.Float64()
			}
		}
		dOf := func(qi int, cfg iset.Set) float64 {
			d := base[qi]
			for _, z := range cfg.Ordinals() {
				if cost[qi][z] < d {
					d = cost[qi][z]
				}
			}
			return d
		}
		benefit := func(cfg iset.Set) float64 {
			t := 0.0
			for qi := 0; qi < nQ; qi++ {
				t += base[qi] - dOf(qi, cfg)
			}
			return t
		}
		// Greedy.
		var greedyCfg iset.Set
		for greedyCfg.Len() < k {
			best, bestB := -1, benefit(greedyCfg)
			for z := 0; z < nIdx; z++ {
				if greedyCfg.Has(z) {
					continue
				}
				if b := benefit(greedyCfg.With(z)); b > bestB {
					best, bestB = z, b
				}
			}
			if best < 0 {
				break
			}
			greedyCfg.Add(best)
		}
		// Brute force.
		bestOpt := 0.0
		var rec func(i int, cur iset.Set)
		rec = func(i int, cur iset.Set) {
			if b := benefit(cur); b > bestOpt {
				bestOpt = b
			}
			if i >= nIdx || cur.Len() >= k {
				return
			}
			rec(i+1, cur)
			rec(i+1, cur.With(i))
		}
		rec(0, iset.Set{})
		bound := (1 - 1/math.E) * bestOpt
		if benefit(greedyCfg) < bound-1e-9 {
			t.Fatalf("trial %d: greedy benefit %v below (1-1/e)·OPT = %v", trial, benefit(greedyCfg), bound)
		}
	}
}

// FCFS layout shape (Figure 5(b)): vanilla greedy fills rows (singleton
// configurations) across all queries before moving on.
func TestVanillaLayoutIsRowMajor(t *testing.T) {
	s := session(t, "tpch", 5, 100)
	cells := layout(t, s, Vanilla{})
	if len(cells) == 0 {
		t.Fatal("no calls traced")
	}
	m := len(s.W.Queries)
	// First m cells should be the same (singleton) configuration across
	// queries 0..m-1.
	first := cells[0].Config.Key()
	for i := 0; i < m && i < len(cells); i++ {
		if cells[i].Config.Key() != first {
			t.Fatalf("cell %d switched rows early: %v vs %v", i, cells[i].Config, first)
		}
		if cells[i].Query != i {
			t.Fatalf("cell %d evaluated query %d, want %d", i, cells[i].Query, i)
		}
	}
}

// Two-phase layout (Figure 5(c)): the first cells are per-query
// (column-major) — the first query's candidates are evaluated before any
// cell of the second query.
func TestTwoPhaseLayoutIsColumnMajorFirst(t *testing.T) {
	s := session(t, "tpch", 5, 100)
	cells := layout(t, s, TwoPhase{})
	if len(cells) < 3 {
		t.Fatal("too few calls traced")
	}
	// The first |PerQuery[0]| cells must all target query 0.
	n0 := len(s.Cands.PerQuery[0])
	for i := 0; i < n0 && i < len(cells); i++ {
		if cells[i].Query != 0 {
			t.Fatalf("cell %d targets query %d during query 0's phase", i, cells[i].Query)
		}
	}
}

func TestStorageConstraintRespectedByGreedy(t *testing.T) {
	s := session(t, "tpch", 10, 500)
	// Allow roughly two medium indexes.
	s.StorageLimit = 2 * s.Cands.Candidates[0].Index.SizeBytes(s.W.DB)
	cfg := Vanilla{}.Enumerate(s)
	if got := s.ConfigSizeBytes(cfg); got > s.StorageLimit {
		t.Fatalf("config uses %d bytes > limit %d", got, s.StorageLimit)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	a := Vanilla{}.Enumerate(session(t, "tpch", 5, 200))
	b := Vanilla{}.Enumerate(session(t, "tpch", 5, 200))
	if !a.Equal(b) {
		t.Fatalf("vanilla greedy not deterministic: %v vs %v", a, b)
	}
}

// Safety net: DerivedOnly on an empty store returns the empty config (no
// benefits recorded anywhere).
func TestDerivedOnlyEmptyStore(t *testing.T) {
	s := session(t, "tpch", 5, 100)
	cfg, cost := DerivedOnly(s, 5)
	if !cfg.Empty() {
		t.Fatalf("empty store should yield empty config, got %v", cfg)
	}
	if cost != s.Derived.BaseWorkload() {
		t.Fatalf("cost = %v, want base", cost)
	}
}

// Sanity check that whatif optimizer and derived store agree on recorded
// pairs after a greedy run.
func TestDerivedAgreesWithOptimizerCache(t *testing.T) {
	s := session(t, "tpch", 5, 100)
	for _, cell := range layout(t, s, Vanilla{}) {
		cfg := cell.Set()
		want := s.Opt.PeekCost(s.W.Queries[cell.Query], cfg)
		if got := s.Derived.Query(cell.Query, cfg); got > want+1e-9 {
			t.Fatalf("derived %v > what-if %v for recorded pair", got, want)
		}
	}
}
