package core

import (
	"math"
	"sync"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/workload"
)

// formulaGap is the bound gap's definition on s's store as it is now:
// (Σ w·d(q, cfg) − Σ w·floor(q)) / cost(W, ∅), each sum in query order and
// floors counted where probed, clamped at 0.
func formulaGap(s *search.Session, cfg iset.Set) float64 {
	ds := s.Derived
	dSum, floSum := 0.0, 0.0
	for qi, q := range s.W.Queries {
		w := q.EffectiveWeight()
		dSum += w * ds.Query(qi, cfg)
		if f, ok := ds.Floor(qi); ok {
			floSum += w * f
		}
	}
	return max(0, (dSum-floSum)/ds.BaseWorkload())
}

// Every early-stopped Workers=1 run reports as its StopGap exactly the gap
// formula at the configuration it returns, on the session's final store:
// MCTS, vanilla and two-phase over three workloads, three budgets, derive
// epsilons 0 and 0.05 and ten seeds. A checker whose sums drift from the
// store by even one ulp fails it.
func TestStopGapIsFormulaAtResult(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 540 runs")
	}
	algs := []search.Algorithm{Default(), greedy.Vanilla{}, greedy.TwoPhase{}}
	var mu sync.Mutex
	stopped := map[string]int{}
	t.Run("sweep", func(t *testing.T) {
		for _, wl := range []string{"tpch", "tpcds", "job"} {
			t.Run(wl, func(t *testing.T) {
				t.Parallel()
				w := workload.ByName(wl)
				cands := candgen.Generate(w, candgen.Options{})
				opt := search.NewOptimizer(w, cands)
				for _, budget := range []int{1500, 3000, 5000} {
					for _, derive := range []float64{0, search.DefaultDeriveEpsilon} {
						for seed := int64(1); seed <= 10; seed++ {
							for _, alg := range algs {
								s := search.NewSession(w, cands, opt, 10, budget, seed)
								s.Workers = 1
								s.DeriveEpsilon = derive
								s.StopEpsilon = search.DefaultStopEpsilon
								r := search.Run(alg, s)
								if !r.EarlyStopped {
									continue
								}
								mu.Lock()
								stopped[alg.Name()]++
								mu.Unlock()
								if want := formulaGap(s, r.Config); r.StopGap != want {
									t.Errorf("B=%d derive %v seed %d %s: StopGap %v (%#x), formula at the result %v (%#x)",
										budget, derive, seed, alg.Name(), r.StopGap, math.Float64bits(r.StopGap),
										want, math.Float64bits(want))
								}
							}
						}
					}
				}
			})
		}
	})
	for _, alg := range algs {
		if stopped[alg.Name()] == 0 {
			t.Errorf("no %s run stopped early: the sweep checks nothing for it", alg.Name())
		}
	}
	t.Logf("early stops per algorithm: %v", stopped)
}
