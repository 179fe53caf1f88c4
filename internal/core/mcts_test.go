package core

import (
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace/tracetest"
	"indextune/internal/workload"
)

func session(t *testing.T, wname string, k, budget int, seed int64) *search.Session {
	t.Helper()
	w := workload.ByName(wname)
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	return search.NewSession(w, cands, opt, k, budget, seed)
}

// priorLayout runs Algorithm 4's prior phase on s and returns the tuner and
// the phase's charged calls in commit order.
func priorLayout(t *testing.T, s *search.Session, workers int) (*tuner, []tracetest.Cell) {
	t.Helper()
	log := tracetest.New()
	s.Trace = log.Rec
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	tn.computePriors(workers)
	return tn, log.Cells(t)
}

func allVariants() []MCTS {
	var out []MCTS
	for _, pol := range []Policy{PolicyUCT, PolicyPrior} {
		for _, roll := range []RolloutKind{RolloutFixedStep, RolloutRandomStep} {
			for _, ext := range []Extraction{ExtractBG, ExtractBCE, ExtractHybrid} {
				out = append(out, MCTS{Opts: Options{Policy: pol, Rollout: roll, Extraction: ext}})
			}
		}
	}
	return out
}

// TestAllVariantsRespectConstraints runs every variant with no storage
// limit and with one that fits about three candidates, so storage-constraint
// retries reach every rollout and extraction.
func TestAllVariantsRespectConstraints(t *testing.T) {
	for _, storage := range []bool{false, true} {
		for _, m := range allVariants() {
			s := session(t, "tpch", 5, 60, 3)
			if storage {
				s.StorageLimit = 3 * s.Cands.Candidates[0].Index.SizeBytes(s.W.DB)
			}
			cfg := m.Enumerate(s)
			if cfg.Len() > 5 {
				t.Errorf("%s storage=%v: |cfg| = %d > K", m.Name(), storage, cfg.Len())
			}
			if s.StorageLimit > 0 && s.ConfigSizeBytes(cfg) > s.StorageLimit {
				t.Errorf("%s: config uses %d bytes > limit %d", m.Name(), s.ConfigSizeBytes(cfg), s.StorageLimit)
			}
			if s.Used() > 60 {
				t.Errorf("%s storage=%v: used %d > budget 60", m.Name(), storage, s.Used())
			}
		}
	}
}

func TestMCTSDeterministicPerSeed(t *testing.T) {
	a := Default().Enumerate(session(t, "tpch", 5, 100, 7))
	b := Default().Enumerate(session(t, "tpch", 5, 100, 7))
	if !a.Equal(b) {
		t.Fatalf("same seed produced different configs: %v vs %v", a, b)
	}
}

func TestMCTSFindsPositiveImprovement(t *testing.T) {
	s := session(t, "tpch", 10, 200, 1)
	cfg := Default().Enumerate(s)
	if imp := s.OracleImprovement(cfg); imp <= 0.1 {
		t.Fatalf("improvement = %v, want > 10%% on TPC-H with 200 calls", imp)
	}
}

func TestPriorsAreComputedWithinHalfBudget(t *testing.T) {
	s := session(t, "tpch", 5, 100, 1)
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	tn.computePriors(1)
	if s.Used() > 50 {
		t.Fatalf("prior phase used %d > B/2 = 50 calls", s.Used())
	}
	anyPositive := false
	for _, p := range tn.priors {
		if p < 0 || p > 1 {
			t.Fatalf("prior out of [0,1]: %v", p)
		}
		if p > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("no candidate received a positive prior")
	}
}

// Algorithm 4's round-robin: the first len(W) prior calls must target
// distinct queries.
func TestPriorPhaseRoundRobin(t *testing.T) {
	s := session(t, "tpch", 5, 1000, 1)
	_, cells := priorLayout(t, s, 1)
	m := len(s.W.Queries)
	if len(cells) < m {
		t.Fatalf("prior phase issued only %d calls", len(cells))
	}
	seen := make(map[int]bool)
	for i := 0; i < m; i++ {
		if seen[cells[i].Query] {
			t.Fatalf("query %d repeated within the first round", cells[i].Query)
		}
		seen[cells[i].Query] = true
		if len(cells[i].Config) != 1 {
			t.Fatalf("prior call %d used non-singleton config %v", i, cells[i].Config)
		}
	}
}

// Index-selection policy (sortByTableRows): within a query, candidates on
// larger tables are evaluated first, and among candidates on equally large
// tables, those generated for more queries come first.
func TestPriorPhaseLargestTableFirst(t *testing.T) {
	s := session(t, "tpch", 5, 10000, 1)
	_, cells := priorLayout(t, s, 1)
	// The budget covers every (query, relevant candidate) pair.
	perQuery := make(map[int][]int)
	for _, cell := range cells {
		if len(cell.Config) != 1 {
			t.Fatalf("prior call on non-singleton config %v", cell.Config)
		}
		perQuery[cell.Query] = append(perQuery[cell.Query], int(cell.Config[0]))
	}
	ties := 0
	for qi := range s.W.Queries {
		ords, rel := perQuery[qi], s.Relevant(qi)
		if len(ords) != len(rel) {
			t.Fatalf("query %d: %d prior calls, want one per relevant candidate (%d)", qi, len(ords), len(rel))
		}
		for i := 1; i < len(ords); i++ {
			prev, cur := &s.Cands.Candidates[ords[i-1]], &s.Cands.Candidates[ords[i]]
			if cur.TableRows > prev.TableRows {
				t.Fatalf("query %d: call %d on a %d-row table follows one on a %d-row table",
					qi, i, cur.TableRows, prev.TableRows)
			}
			if cur.TableRows == prev.TableRows {
				ties++
				if len(cur.Queries) > len(prev.Queries) {
					t.Fatalf("query %d: call %d's candidate was generated for %d queries, its predecessor on an equal table for only %d",
						qi, i, len(cur.Queries), len(prev.Queries))
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-table neighbours: the tie-break went unchecked")
	}
}

func TestStallGuardTerminates(t *testing.T) {
	// A tiny search space saturates quickly; the run must still terminate
	// even with a huge budget.
	w, err := workload.Synthesize(workload.SynthSpec{
		Name: "tiny", Seed: 1, NumTables: 3, NumQueries: 2,
		ScansMean: 2, FiltersMean: 1,
		RowsMin: 1000, RowsMax: 10000, PayloadMin: 10, PayloadMax: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	s := search.NewSession(w, cands, opt, 2, 100000, 1)
	cfg := Default().Enumerate(s)
	if cfg.Len() > 2 {
		t.Fatalf("|cfg| = %d", cfg.Len())
	}
}

func TestStorageConstraintRespected(t *testing.T) {
	s := session(t, "tpch", 10, 200, 1)
	s.StorageLimit = 3 * s.Cands.Candidates[0].Index.SizeBytes(s.W.DB)
	cfg := Default().Enumerate(s)
	if got := s.ConfigSizeBytes(cfg); got > s.StorageLimit {
		t.Fatalf("config uses %d bytes > limit %d", got, s.StorageLimit)
	}
}

func TestEpisodeConsumesOneCall(t *testing.T) {
	s := session(t, "tpch", 5, 40, 2)
	m := MCTS{Opts: Options{Policy: PolicyUCT, Rollout: RolloutRandomStep, Extraction: ExtractBCE}}
	m.Enumerate(s)
	// UCT has no prior phase, so every call stems from an episode: the used
	// budget must not exceed the budget and each episode spends at most one.
	if s.Used() > 40 {
		t.Fatalf("used %d > 40", s.Used())
	}
}

func TestRewardsWithinUnitInterval(t *testing.T) {
	s := session(t, "tpch", 5, 80, 3)
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	tn.buildPrefix()
	tn.root = tn.newNode(iset.Set{}, 0)
	tn.bestCfg = iset.Set{}
	sl := oneSlot(tn)
	for i := 0; i < 50 && !s.Exhausted(); i++ {
		tn.beginEpisode(sl)
		tn.commitEpisode(sl)
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.statKeys {
			st := &n.stats[i]
			if st.n > 0 {
				q := st.sum / float64(st.n)
				if q < 0 || q > 1 {
					t.Fatalf("average reward %v outside [0,1]", q)
				}
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tn.root)
}

func TestTreeVisitAccounting(t *testing.T) {
	s := session(t, "tpch", 5, 100, 4)
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	tn.buildPrefix()
	tn.root = tn.newNode(iset.Set{}, 0)
	tn.bestCfg = iset.Set{}
	episodes := 0
	sl := oneSlot(tn)
	for !s.Exhausted() && episodes < 200 {
		tn.beginEpisode(sl)
		tn.commitEpisode(sl)
		episodes++
	}
	// N(s) = Σ_a n(s,a) + episodes terminating at s. At the root every
	// episode passes through, so visits == episodes.
	if tn.root.visits != episodes {
		t.Fatalf("root visits %d != episodes %d", tn.root.visits, episodes)
	}
	sum := 0
	for i := range tn.root.statKeys {
		sum += tn.root.stats[i].n
	}
	if sum > tn.root.visits {
		t.Fatalf("Σ n(s,a) = %d exceeds N(s) = %d", sum, tn.root.visits)
	}
}

func TestNamesDistinguishVariants(t *testing.T) {
	names := make(map[string]bool)
	for _, m := range []MCTS{
		{Opts: Options{Policy: PolicyUCT, Extraction: ExtractBCE}},
		{Opts: Options{Policy: PolicyUCT, Extraction: ExtractBG}},
		{Opts: Options{Policy: PolicyPrior, Extraction: ExtractBCE}},
		{Opts: Options{Policy: PolicyPrior, Extraction: ExtractBG}},
	} {
		if names[m.Name()] {
			t.Fatalf("duplicate name %q", m.Name())
		}
		names[m.Name()] = true
	}
	if PolicyUCT.String() == PolicyPrior.String() {
		t.Fatal("policy strings collide")
	}
	if ExtractBG.String() == ExtractBCE.String() || ExtractBCE.String() == ExtractHybrid.String() {
		t.Fatal("extraction strings collide")
	}
}

// The headline behaviour: at a small budget, MCTS must beat vanilla greedy
// on a large workload by a wide margin (Figure 8-10 dynamics).
func TestMCTSBeatsVanillaAtSmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload comparison")
	}
	w := workload.ByName("tpcds")
	cands := candgen.Generate(w, candgen.Options{})
	run := func(alg search.Algorithm) float64 {
		opt := search.NewOptimizer(w, cands)
		s := search.NewSession(w, cands, opt, 10, 1000, 5)
		return search.Run(alg, s).ImprovementPct
	}
	mcts := run(Default())
	vanilla := run(vanillaForTest{})
	if mcts < 2*vanilla {
		t.Fatalf("MCTS %.1f%% should dominate vanilla %.1f%% at B=1000", mcts, vanilla)
	}
}

// vanillaForTest avoids importing the greedy package (import cycle in
// tests): FCFS evaluation of every candidate as a first greedy step is
// enough for the dominance check.
type vanillaForTest struct{}

func (vanillaForTest) Name() string { return "vanilla-lite" }

func (vanillaForTest) Enumerate(s *search.Session) iset.Set {
	cur := iset.Set{}
	curCost := s.Derived.BaseWorkload()
	for cur.Len() < s.K {
		best, bestCost := -1, curCost
		for ord := 0; ord < s.NumCandidates(); ord++ {
			if cur.Has(ord) {
				continue
			}
			cfg := cur.With(ord)
			total := 0.0
			for qi := range s.W.Queries {
				c, _ := s.WhatIf(qi, cfg)
				total += c * s.W.Queries[qi].EffectiveWeight()
			}
			if total < bestCost {
				best, bestCost = ord, total
			}
		}
		if best < 0 {
			break
		}
		cur.Add(best)
		curCost = bestCost
	}
	return cur
}
