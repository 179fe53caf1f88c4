// Package core exercises sanctioned cost-query shapes: everything reaches
// the optimizer only through search.Session charging methods, including
// through helper layers and interfaces, so chargepath must stay silent.
package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// Sanctioned charges through the session gateway.
func Sanctioned(s *search.Session, qi int, cfg iset.Set) float64 {
	if c, ok := s.WhatIf(qi, cfg); ok {
		return c
	}
	return s.Derived.Query(qi, cfg)
}

// ViaHelper goes through a helper that itself stays behind the gateway.
func ViaHelper(s *search.Session, cfg iset.Set) float64 {
	return cleanHelper(s, cfg)
}

func cleanHelper(s *search.Session, cfg iset.Set) float64 {
	c, _ := s.WhatIf(0, cfg)
	return c
}

// scorer abstracts a budgeted evaluation behind an interface; the
// devirtualized implementation charges through the session, so the abstract
// call is sanctioned too.
type scorer interface {
	score(s *search.Session, qi int, cfg iset.Set) float64
}

type budgeted struct{}

func (budgeted) score(s *search.Session, qi int, cfg iset.Set) float64 {
	c, _ := s.WhatIf(qi, cfg)
	return c
}

// ViaInterface calls through the interface.
func ViaInterface(sc scorer, s *search.Session, qi int, cfg iset.Set) float64 {
	return sc.score(s, qi, cfg)
}

// FinalEval uses the oracle gateway for end-of-run evaluation.
func FinalEval(s *search.Session, cfg iset.Set) float64 {
	return s.OracleImprovement(cfg)
}

// BatchSanctioned drives the batched pipeline through the three session
// gateways; every charged pair is metered by ReserveBatch, so chargepath
// must stay silent.
func BatchSanctioned(s *search.Session, qis []int, cfg iset.Set) float64 {
	b := &search.Batch{}
	for _, qi := range qis {
		b.Add(qi, cfg)
	}
	s.ReserveBatch(b)
	s.EvaluateReservedBatch(b, 2)
	s.CommitReservedBatch(b)
	t := 0.0
	for i := 0; i < b.Len(); i++ {
		t += b.Cost(i)
	}
	return t
}
