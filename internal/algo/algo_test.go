package algo

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/search"
	"indextune/internal/trace/tracetest"
	"indextune/internal/workload"
)

// Every charged what-if call costs PerCallTime of what-if time plus
// PerCallTime/8 of other tuning work, so a run's simulated time is a linear
// function of its spend, and the trace stream carries one commit event per
// charged call. Pinned for every algorithm except the exact DP solver, on
// two workloads, at one and four workers, with bound interception and early
// stopping each on and off.
func TestTuningTimeDerivesFromSpend(t *testing.T) {
	// At K=20, B=300 and a stopping tolerance of 0.3, MCTS stops early on
	// TPC-H; the grid asserts below that it reaches both layers.
	const k, budget, stopEps = 20, 300, 0.3
	modes := []struct {
		name         string
		derive, stop float64
	}{
		{"plain", 0, 0},
		{"derive", search.DefaultDeriveEpsilon, 0},
		{"stop", 0, stopEps},
		{"derive+stop", search.DefaultDeriveEpsilon, stopEps},
	}
	var stopped, intercepted atomic.Int32
	// The group returns once every parallel run has finished.
	t.Run("grid", func(t *testing.T) {
		for _, wname := range []string{"tpch", "job"} {
			w := workload.ByName(wname)
			cands := candgen.Generate(w, candgen.Options{})
			opt := search.NewOptimizer(w, cands)
			for _, name := range Names() {
				if name == NameDP {
					continue
				}
				for _, workers := range []int{1, 4} {
					for _, m := range modes {
						t.Run(fmt.Sprintf("%s/%s/w%d/%s", wname, name, workers, m.name), func(t *testing.T) {
							t.Parallel()
							alg, err := ByName(name, nil)
							if err != nil {
								t.Fatal(err)
							}
							s := search.NewSession(w, cands, opt, k, budget, 1)
							s.Workers = workers
							s.DeriveEpsilon, s.StopEpsilon = m.derive, m.stop
							log := tracetest.New()
							s.Trace = log.Rec
							r := search.Run(alg, s)
							if r.EarlyStopped {
								stopped.Add(1)
							}
							if r.DerivedBoundHits > 0 {
								intercepted.Add(1)
							}
							used := time.Duration(s.Used())
							if want := used * opt.PerCallTime; r.WhatIfTime != want {
								t.Errorf("WhatIfTime = %v, want Used·PerCallTime = %v", r.WhatIfTime, want)
							}
							if want := r.WhatIfTime + used*(opt.PerCallTime/8); r.TuningTime != want {
								t.Errorf("TuningTime = %v, want WhatIfTime + Used·PerCallTime/8 = %v", r.TuningTime, want)
							}
							commits := len(log.Cells(t))
							if commits != s.Used() || r.WhatIfCalls != s.Used() {
								t.Errorf("commit events = %d, WhatIfCalls = %d, want Used() = %d", commits, r.WhatIfCalls, s.Used())
							}
						})
					}
				}
			}
		}
	})
	// The grid must reach the stopping and interception paths it names.
	if stopped.Load() == 0 || intercepted.Load() == 0 {
		t.Fatalf("%d runs stopped early, %d intercepted calls: the grid misses a path", stopped.Load(), intercepted.Load())
	}
}
