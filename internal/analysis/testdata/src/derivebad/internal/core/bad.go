// Package core is a seeded-violation testdata package: an "algorithm
// package" (its synthetic import path embeds internal/core) whose
// derived-bound answers charge the session budget, violating the
// interception contract — a cost answered from monotonicity-derived bounds
// is budget-free by construction and must never call Reserve.
package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// TracedCharge emits a derived-bound trace event and a budget commit in the
// same decision block: the trace would claim the answer was free while the
// layout records a charge.
func TracedCharge(s *search.Session, qi int, cfg iset.Set, lo, hi float64) float64 {
	if hi-lo <= 0.05*hi {
		mid := (hi + lo) / 2
		if s.Trace != nil {
			s.Trace.DerivedBound(qi, cfg.Key(), mid, (hi-lo)/hi)
		}
		s.CommitReserved(qi, cfg, mid) // want "Session.CommitReserved inside the decision block of a derived-bound trace event"
		return mid
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// TracedReserveEvent witnesses both a derived-bound event and a reserve
// event for the same decision — contradictory accounting.
func TracedReserveEvent(s *search.Session, qi int, cfg iset.Set, mid float64) {
	if mid > 0 {
		s.Trace.DerivedBound(qi, cfg.Key(), mid, 0)
		s.Trace.Reserve(qi, cfg.Key(), 1) // want "Recorder.Reserve inside the decision block of a derived-bound trace event"
	}
}

// BatchTracedCommit emits a derived-bound trace event and commits a reserved
// batch in the same decision block: the trace claims the answer was free
// while the commit records charges.
func BatchTracedCommit(s *search.Session, b *search.Batch, qi int, cfg iset.Set, lo, hi float64) float64 {
	if hi-lo <= 0.05*hi {
		mid := (hi + lo) / 2
		if s.Trace != nil {
			s.Trace.DerivedBound(qi, cfg.Key(), mid, (hi-lo)/hi)
		}
		s.CommitReservedBatch(b) // want "Session.CommitReservedBatch inside the decision block of a derived-bound trace event"
		return mid
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}
