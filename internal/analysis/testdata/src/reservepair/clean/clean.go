// Package clean exercises reservation patterns the analyzer must accept:
// guarded discharges, deferred releases, escape to a consumer, and annotated
// helper discharges.
package clean

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// CommitOnCharged is the canonical correct shape.
func CommitOnCharged(s *search.Session, qi int, cfg iset.Set) float64 {
	switch s.Reserve(qi, cfg) {
	case search.ReserveExhausted:
		return 0
	case search.ReserveCached:
		return s.EvaluateReserved(qi, cfg)
	}
	c := s.EvaluateReserved(qi, cfg)
	s.CommitReserved(qi, cfg, c)
	return c
}

// ReleaseOnError releases the charged reservation on the failure path.
func ReleaseOnError(s *search.Session, qi int, cfg iset.Set, fail bool) float64 {
	r := s.Reserve(qi, cfg)
	if r != search.ReserveCharged {
		return 0
	}
	if fail {
		s.ReleaseReserved(qi, cfg)
		return 0
	}
	c := s.EvaluateReserved(qi, cfg)
	s.CommitReserved(qi, cfg, c)
	return c
}

// DeferredRelease relies on the deferred discharge running on every path.
func DeferredRelease(s *search.Session, qi int, cfg iset.Set, skip bool) float64 {
	if s.Reserve(qi, cfg) != search.ReserveCharged {
		return 0
	}
	defer s.ReleaseReserved(qi, cfg)
	if skip {
		return 0
	}
	return s.EvaluateReserved(qi, cfg)
}

// EscapesToCaller hands the obligation to its caller with the reservation
// value; the analyzer must not flag the site.
func EscapesToCaller(s *search.Session, qi int, cfg iset.Set) search.Reservation {
	return consume(s.Reserve(qi, cfg))
}

func consume(r search.Reservation) search.Reservation { return r }

// EscapesToSlice stores reservation states for a later commit loop.
func EscapesToSlice(s *search.Session, cfg iset.Set, n int) {
	states := make([]search.Reservation, n)
	for qi := 0; qi < n; qi++ {
		states[qi] = s.Reserve(qi, cfg)
	}
	for qi := 0; qi < n; qi++ {
		if states[qi] == search.ReserveCharged {
			s.CommitReserved(qi, cfg, s.EvaluateReserved(qi, cfg))
		}
	}
}

// helperDischarge stands in for session-internal commit helpers.
//
// reservepair: discharges
func helperDischarge(s *search.Session, qi int, cfg iset.Set, c float64) {
	s.CommitReserved(qi, cfg, c)
}

// AnnotatedHelper discharges through an annotated helper.
func AnnotatedHelper(s *search.Session, qi int, cfg iset.Set) {
	if s.Reserve(qi, cfg) == search.ReserveCharged {
		helperDischarge(s, qi, cfg, s.EvaluateReserved(qi, cfg))
	}
}

// PanicPathIsNotALeak: obligations on panicking paths are out of scope.
func PanicPathIsNotALeak(s *search.Session, qi int, cfg iset.Set, n int) {
	if s.Reserve(qi, cfg) != search.ReserveCharged {
		return
	}
	if n < 0 {
		panic("invariant: n must be non-negative")
	}
	s.CommitReserved(qi, cfg, s.EvaluateReserved(qi, cfg))
}
