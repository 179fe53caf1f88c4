// Package bad seeds reservation-leak violations: batches reserved with
// Session.ReserveBatch that can reach function exit without
// CommitReservedBatch, or that are committed twice.
package bad

import (
	"errors"

	"indextune/internal/iset"
	"indextune/internal/search"
)

// LeakOnEarlyReturn is the canonical leak: the error path returns between
// the reserve and the commit.
func LeakOnEarlyReturn(s *search.Session, b *search.Batch, bad bool) (float64, error) {
	s.ReserveBatch(b) // want "without CommitReservedBatch"
	if bad {
		return 0, errors.New("early return skips the commit")
	}
	s.EvaluateReservedBatch(b, 1)
	s.CommitReservedBatch(b)
	return b.Cost(0), nil
}

// LeakNeverCommitted reserves and evaluates, then reads the cost without
// ever committing the charged pairs.
func LeakNeverCommitted(s *search.Session, qi int, cfg iset.Set) float64 {
	b := &search.Batch{}
	b.Add(qi, cfg)
	s.ReserveBatch(b) // want "without CommitReservedBatch"
	s.EvaluateReservedBatch(b, 1)
	return b.Cost(0)
}

// LeakBreakInLoop breaks out of the loop between reserve and commit.
func LeakBreakInLoop(s *search.Session, cfg iset.Set, n int) float64 {
	var b search.Batch
	total := 0.0
	for qi := 0; qi < n; qi++ {
		b.Reset()
		b.Add(qi, cfg)
		s.ReserveBatch(&b) // want "without CommitReservedBatch"
		s.EvaluateReservedBatch(&b, 1)
		if b.Cost(0) < 0 {
			break // leaks the reservation
		}
		s.CommitReservedBatch(&b)
		total += b.Cost(0)
	}
	return total
}

// DoubleCommit settles the same reservation twice.
func DoubleCommit(s *search.Session, qi int, cfg iset.Set) {
	var b search.Batch
	b.Add(qi, cfg)
	s.ReserveBatch(&b)
	s.EvaluateReservedBatch(&b, 1)
	s.CommitReservedBatch(&b)
	s.CommitReservedBatch(&b) // want "already committed"
}
