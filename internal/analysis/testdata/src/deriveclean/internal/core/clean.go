// Package core shows the sanctioned shapes of bound-based what-if
// interception: the decision block emitting the derived-bound event returns
// the bound midpoint and nothing else, and any budget charging lives on a
// disjoint path — mirroring search.Session.WhatIf and ReserveBatch.
package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// TraceSeparated emits the derived-bound event inside its own decision
// block; the budget-charging path is the disjoint else-flow after it.
func TraceSeparated(s *search.Session, qi int, cfg iset.Set, lo, hi, eps float64) float64 {
	if hi-lo <= eps*hi {
		if s.Trace != nil {
			s.Trace.DerivedBound(qi, cfg.Key(), (hi+lo)/2, 0)
		}
		return (hi + lo) / 2
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// BatchCommitSeparated mirrors Session.CommitReservedBatch's per-outcome
// switch: the derived-bound event lives in its own case clause, and the
// charging commit lives in a disjoint clause — sanctioned.
func BatchCommitSeparated(s *search.Session, b *search.Batch, qi int, cfg iset.Set, bound bool, mid float64) {
	switch {
	case bound:
		if s.Trace != nil {
			s.Trace.DerivedBound(qi, cfg.Key(), mid, 0)
		}
	default:
		s.CommitReservedBatch(b)
	}
}
