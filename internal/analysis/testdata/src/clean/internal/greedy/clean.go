// Package greedy is a clean testdata package: an "algorithm package" that
// routes every cost query through the session, as the budget contract
// requires.
package greedy

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// workloadCost sums the budgeted cost of cfg over the workload.
func workloadCost(s *search.Session, cfg iset.Set) float64 {
	t := 0.0
	for qi := range s.W.Queries {
		c, _ := s.WhatIf(qi, cfg)
		t += c
	}
	return t
}

// Gain evaluates the budgeted improvement of adding each candidate to cfg.
func Gain(s *search.Session, cfg iset.Set) float64 {
	before := workloadCost(s, cfg)
	best := 0.0
	for ord := 0; ord < s.NumCandidates(); ord++ {
		if cfg.Has(ord) {
			continue
		}
		after := workloadCost(s, cfg.With(ord))
		if g := before - after; g > best {
			best = g
		}
	}
	return best
}

// Improvement uses the session's oracle for final-configuration evaluation.
func Improvement(s *search.Session, cfg iset.Set) float64 {
	return s.OracleImprovement(cfg)
}
