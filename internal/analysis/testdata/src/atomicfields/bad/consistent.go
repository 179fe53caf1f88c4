package bad

import "sync/atomic"

// SyncMeter uses raw atomics for every access to calls. It is race-free
// today, but the field's type does not say so: the next plain read compiles
// and races. The typed wrapper (hits) makes that read impossible.
type SyncMeter struct {
	calls int64
	hits  atomic.Int64 // typed wrappers are safe by construction
	name  string
}

// Inc is the concurrent hot path.
func (m *SyncMeter) Inc() {
	atomic.AddInt64(&m.calls, 1) // want "field \"calls\" is passed to atomic.AddInt64"
	m.hits.Add(1)
}

// Snapshot reads both counters atomically.
func (m *SyncMeter) Snapshot() (int64, int64) {
	return atomic.LoadInt64(&m.calls), m.hits.Load() // want "field \"calls\" is passed to atomic.LoadInt64"
}

// Reset clears the counters atomically.
func (m *SyncMeter) Reset() {
	atomic.StoreInt64(&m.calls, 0) // want "field \"calls\" is passed to atomic.StoreInt64"
	m.hits.Store(0)
}

// Name is plain access to a non-atomic field — fine.
func (m *SyncMeter) Name() string {
	return m.name
}
