// Package greedy is a seeded-violation testdata package: an "algorithm
// package" (its synthetic import path embeds internal/greedy) that bypasses
// the session budget by talking to the optimizer directly. budgetguard
// reports the import; chargepath reports every direct cost call.
package greedy

import (
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/whatif" // want "algorithm package imports indextune/internal/whatif"
)

// CheapestDirect queries costs straight off the shared optimizer, so the
// session's budget meter never sees the calls.
func CheapestDirect(s *search.Session, cfg iset.Set) float64 {
	best := 0.0
	for _, q := range s.W.Queries {
		c := s.Opt.WhatIf(q, cfg) // want "reaches whatif.Optimizer cost method without a search.Session charging method on the path: greedy.CheapestDirect -> whatif.(Optimizer).WhatIf"
		base := s.Opt.BaseCost(q) // want "greedy.CheapestDirect -> whatif.(Optimizer).BaseCost"
		if c < base {
			best += base - c
		}
	}
	return best
}

// PeekImprovement evaluates a final configuration without the session's
// oracle helper.
func PeekImprovement(s *search.Session, opt *whatif.Optimizer, cfg iset.Set) float64 {
	t := 0.0
	for _, q := range s.W.Queries {
		t += opt.PeekCost(q, cfg) // want "greedy.PeekImprovement -> whatif.(Optimizer).PeekCost"
	}
	return t
}

// BatchDirect scores a whole candidate sweep off the optimizer's batch entry
// point, laundering every pair past the budget meter in one call.
func BatchDirect(s *search.Session, cfgs []iset.Set) float64 {
	t := 0.0
	for _, q := range s.W.Queries {
		for _, c := range s.Opt.WhatIfBatch(q, cfgs) { // want "greedy.BatchDirect -> whatif.(Optimizer).WhatIfBatch"
			t += c
		}
	}
	return t
}
