// Package core shows the sanctioned shapes of early-stopping checks: the
// stop branch only exits the enumeration loop (or records bookkeeping), and
// all budget charging lives on the disjoint continue path — mirroring the
// commit-point checks in internal/core's MCTS loops and internal/greedy.
package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// StopOrCharge charges budget only on the not-stopped path.
func StopOrCharge(s *search.Session, qi int, cfg iset.Set) float64 {
	if s.CheckStop(cfg) {
		return 0
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// LoopBreak is the enumerator commit-point shape: the stop branch breaks out
// and the next iteration's charging is outside the decision region.
func LoopBreak(s *search.Session, qi int, cfg iset.Set) {
	for i := 0; i < 10; i++ {
		if s.CheckStop(cfg) {
			break
		}
		s.WhatIf(qi, cfg)
	}
}

// TraceSeparated emits the stop event inside its own decision block; the
// budget-charging path is the disjoint fallthrough after it.
func TraceSeparated(s *search.Session, qi int, cfg iset.Set, gap, eps float64) float64 {
	if gap <= eps {
		if s.Trace != nil {
			s.Trace.Stop(gap, 0, 0)
		}
		return 0
	}
	c, _ := s.WhatIf(qi, cfg)
	return c
}
