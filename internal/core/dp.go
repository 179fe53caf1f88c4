package core

// Exact dynamic-programming solver for small state spaces. Section 5.2
// notes that when the state space is small, V*(s)/Q*(s,a) can be computed
// exactly by dynamic programming over the recursive Bellman relationships —
// it is only infeasible at workload scale. This solver provides the exact
// optimum as a reference for tests and for tuning tiny workloads, and it is
// budget-aware: known what-if costs are used where available and derived
// costs elsewhere, so with an unlimited budget it returns the true optimal
// configuration.

import (
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
)

// MaxDPCandidates bounds the candidate universe the DP solver accepts
// (2^n states must stay enumerable).
const MaxDPCandidates = 22

// DP is the exact solver. It degrades to Best-Greedy extraction when the
// candidate universe exceeds MaxDPCandidates.
type DP struct{}

// Name implements search.Algorithm.
func (DP) Name() string { return "DP (exact)" }

// Enumerate implements search.Algorithm: it evaluates every configuration
// of size ≤ K, spending the budget FCFS over configurations in BFS order
// (all singletons, then all pairs, ...), and returns the best configuration
// under derived costs — which equal the what-if costs wherever the budget
// reached.
func (DP) Enumerate(s *search.Session) iset.Set {
	n := s.NumCandidates()
	if n > MaxDPCandidates {
		// The store is still empty here, so this is ∅ without a charge.
		cfg, _ := greedy.DerivedOnly(s, s.K)
		return cfg
	}
	best := iset.Set{}
	bestCost := s.Derived.BaseWorkload()

	// BFS over configuration sizes so small configurations (whose costs
	// seed cost derivation for larger ones) are evaluated first.
	var level []iset.Set
	level = append(level, iset.Set{})
	for size := 1; size <= s.K; size++ {
		var next []iset.Set
		seen := make(map[string]bool)
		for _, base := range level {
			maxOrd := -1
			if ords := base.Ordinals(); len(ords) > 0 {
				maxOrd = ords[len(ords)-1]
			}
			for ord := maxOrd + 1; ord < n; ord++ {
				if !s.FitsStorage(base, ord) {
					continue
				}
				cfg := base.With(ord)
				key := cfg.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				total := 0.0
				for qi := range s.W.Queries {
					c, _ := s.WhatIf(qi, cfg)
					total += c * s.W.Queries[qi].EffectiveWeight()
				}
				if total < bestCost {
					bestCost = total
					best = cfg.Clone()
				}
				next = append(next, cfg)
			}
		}
		level = next
	}
	return best
}
