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

// ChargedDerive answers from derived bounds but still reserves budget for
// the pair — the double charge the guard forbids.
func ChargedDerive(s *search.Session, qi int, cfg iset.Set) float64 {
	if c, ok := s.TryDeriveBound(qi, cfg); ok {
		s.Reserve(qi, cfg) // want "Session.Reserve inside a TryDeriveBound success branch"
		return c
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// DoubleAnswer re-asks the optimizer for a pair the bounds already answered,
// burning budget on a call interception was supposed to save.
func DoubleAnswer(s *search.Session, qi int, cfg iset.Set) float64 {
	if c, ok := s.TryDeriveBound(qi, cfg); ok {
		exact, _ := s.WhatIf(qi, cfg) // want "Session.WhatIf inside a TryDeriveBound success branch"
		return (c + exact) / 2
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// NegatedBranch hides the charge in the else branch of a negated
// interception check — still the success branch.
func NegatedBranch(s *search.Session, qi int, cfg iset.Set) float64 {
	if c, ok := s.TryDeriveBound(qi, cfg); !ok {
		c, _ := s.WhatIf(qi, cfg)
		return c
	} else {
		s.CommitReserved(qi, cfg, c) // want "Session.CommitReserved inside a TryDeriveBound success branch"
		return c
	}
}

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

// BatchChargedDerive answers from derived bounds but still reserves a batch
// for the pair — the batched flavor of the double charge.
func BatchChargedDerive(s *search.Session, qi int, cfg iset.Set) float64 {
	if c, ok := s.TryDeriveBound(qi, cfg); ok {
		b := &search.Batch{}
		b.Add(qi, cfg)
		s.ReserveBatch(b) // want "Session.ReserveBatch inside a TryDeriveBound success branch"
		return c
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
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
