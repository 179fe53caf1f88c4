// Package clean exercises batch reservation patterns the analyzer must
// accept: straight-line and deferred commits, a reused loop batch, and
// batches whose obligation leaves the function's hands.
package clean

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// StraightLine is the canonical shape: reserve, evaluate, commit.
func StraightLine(s *search.Session, qi int, cfg iset.Set) float64 {
	var b search.Batch
	b.Add(qi, cfg)
	s.ReserveBatch(&b)
	s.EvaluateReservedBatch(&b, 1)
	s.CommitReservedBatch(&b)
	return b.Cost(0)
}

// DeferredCommit relies on the deferred commit running on every path,
// the early return included.
func DeferredCommit(s *search.Session, b *search.Batch, skip bool) float64 {
	s.ReserveBatch(b)
	defer s.CommitReservedBatch(b)
	if skip {
		return 0
	}
	s.EvaluateReservedBatch(b, 1)
	return b.Cost(0)
}

// ReusedLoopBatch reserves one batch per iteration and commits it on both
// branches before the next reserve.
func ReusedLoopBatch(s *search.Session, cfg iset.Set, n int) float64 {
	var b search.Batch
	total := 0.0
	for qi := 0; qi < n; qi++ {
		b.Reset()
		b.Add(qi, cfg)
		s.ReserveBatch(&b)
		if b.Outcome(0) == search.BatchExhausted {
			s.CommitReservedBatch(&b)
			continue
		}
		s.EvaluateReservedBatch(&b, 1)
		s.CommitReservedBatch(&b)
		total += b.Cost(0)
	}
	return total
}

// PanicPathIsNotALeak: obligations on panicking paths are out of scope.
func PanicPathIsNotALeak(s *search.Session, qi int, cfg iset.Set, n int) {
	b := new(search.Batch)
	b.Add(qi, cfg)
	s.ReserveBatch(b)
	if n < 0 {
		panic("invariant: n must be non-negative")
	}
	s.EvaluateReservedBatch(b, 1)
	s.CommitReservedBatch(b)
}

// slot holds its batch in a field; the commit happens in another method, so
// the analyzer skips the site.
type slot struct{ b search.Batch }

func (sl *slot) begin(s *search.Session, qi int, cfg iset.Set) {
	sl.b.Reset()
	sl.b.Add(qi, cfg)
	s.ReserveBatch(&sl.b)
}

func (sl *slot) commit(s *search.Session) {
	s.CommitReservedBatch(&sl.b)
}

// SentOnChannel hands the reserved batch to a consumer that owes the
// commit; the analyzer skips the site.
func SentOnChannel(s *search.Session, qi int, cfg iset.Set, out chan<- *search.Batch) {
	b := new(search.Batch)
	b.Add(qi, cfg)
	s.ReserveBatch(b)
	out <- b
}
