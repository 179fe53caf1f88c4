// Package core is a seeded-violation testdata package: an "algorithm
// package" (its synthetic import path embeds internal/core) whose
// stop-decision regions charge the session budget, violating the
// early-stopping contract — a stop decision refunds the remaining budget,
// so spending calls inside it contradicts the refund it just declared.
package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// ChargeAfterStop reserves budget in the branch taken when the session just
// stopped — spend the refund said was unnecessary.
func ChargeAfterStop(s *search.Session, qi int, cfg iset.Set) {
	if s.CheckStop(cfg) {
		s.Reserve(qi, cfg) // want "Session.Reserve inside a CheckStop success branch"
	}
}

// FinalCallOnStop burns one last what-if call on the stop path, as if the
// decision needed a confirmation the bound already gave.
func FinalCallOnStop(s *search.Session, qi int, cfg iset.Set) float64 {
	if s.CheckStop(cfg) {
		c, _ := s.WhatIf(qi, cfg) // want "Session.WhatIf inside a CheckStop success branch"
		return c
	}
	return 0
}

// NegatedStop hides the charge in the else branch of a negated stop check —
// still the stop branch.
func NegatedStop(s *search.Session, qi int, cfg iset.Set) float64 {
	if !s.CheckStop(cfg) {
		c, _ := s.WhatIf(qi, cfg)
		return c
	} else {
		b := &search.Batch{}
		b.Add(qi, cfg)
		s.ReserveBatch(b) // want "Session.ReserveBatch inside a CheckStop success branch"
		return 0
	}
}

// TracedStopCharge emits a stop trace event and a budget commit in the same
// decision block: the trace claims the run is over while the layout records
// a fresh charge.
func TracedStopCharge(s *search.Session, qi int, cfg iset.Set, gap float64, refund, used int) {
	if gap <= 0.02 {
		if s.Trace != nil {
			s.Trace.Stop(gap, refund, used)
		}
		s.CommitReserved(qi, cfg, gap) // want "Session.CommitReserved inside the decision block of a stop trace event"
	}
}

// TracedStopReserveEvent witnesses both a stop event and a reserve event for
// the same decision — contradictory accounting.
func TracedStopReserveEvent(s *search.Session, qi int, cfg iset.Set, gap float64) {
	if gap <= 0.02 {
		s.Trace.Stop(gap, 0, 0)
		s.Trace.Reserve(qi, cfg.Key(), 1) // want "Recorder.Reserve inside the decision block of a stop trace event"
	}
}
