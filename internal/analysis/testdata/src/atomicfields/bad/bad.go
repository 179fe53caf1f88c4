// Package bad seeds atomicfields violations: counter fields passed by
// address to sync/atomic functions, whether or not every other access is
// atomic too.
package bad

import "sync/atomic"

// Meter counts calls across goroutines.
type Meter struct {
	calls int64
	name  string
}

// Inc is the concurrent hot path.
func (m *Meter) Inc() {
	atomic.AddInt64(&m.calls, 1) // want "field \"calls\" is passed to atomic.AddInt64"
}

// Snapshot reads the counter without atomic, racing with Inc.
func (m *Meter) Snapshot() int64 {
	return m.calls
}

// Reset writes the counter without atomic, racing with Inc.
func (m *Meter) Reset() {
	m.calls = 0
}

// Name is plain access to a non-atomic field — fine.
func (m *Meter) Name() string {
	return m.name
}
