// Package clean shows the sanctioned counterpart: concurrent counters are
// typed atomics, so no field ever reaches a sync/atomic function.
package clean

import "sync/atomic"

// Meter counts calls across goroutines.
type Meter struct {
	calls atomic.Int64
	hits  atomic.Int64
	name  string
}

// Inc is the concurrent hot path.
func (m *Meter) Inc() {
	m.calls.Add(1)
	m.hits.Add(1)
}

// Snapshot reads both counters atomically.
func (m *Meter) Snapshot() (int64, int64) {
	return m.calls.Load(), m.hits.Load()
}

// Reset clears the counters atomically.
func (m *Meter) Reset() {
	m.calls.Store(0)
	m.hits.Store(0)
}

// Name is plain access to a non-atomic field — fine.
func (m *Meter) Name() string {
	return m.name
}

// total counts into a local with the package-level functions; only struct
// fields are in the analyzer's scope.
func total(ms []*Meter) int64 {
	var n int64
	for _, m := range ms {
		atomic.AddInt64(&n, m.calls.Load())
	}
	return n
}
