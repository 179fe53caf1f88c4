package bad

import "sync/atomic"

// stat mirrors a search-tree action statistic under leaf-parallel MCTS: the
// in-flight counter (virtual loss) is bumped atomically by episode dispatch
// but folded into the value estimate and lifted with plain accesses — the
// mixed discipline that silently loses counter updates under contention.
type stat struct {
	n     int64
	sum   float64
	vloss int64
}

// hold marks an episode in flight (the atomic user).
func (s *stat) hold() {
	atomic.AddInt64(&s.vloss, 1) // want "field \"vloss\" is passed to atomic.AddInt64"
}

// release lifts the virtual loss with a plain decrement, racing with hold.
func (s *stat) release() {
	s.vloss--
}

// value folds the in-flight count into the estimate with a plain read.
func (s *stat) value() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n+s.vloss)
}
