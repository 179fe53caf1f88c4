package jobs

import (
	"bytes"
	"errors"
	"sync"
)

// Broadcast is an append-only byte stream with one writer and any number of
// independent readers. The job's trace.Recorder writes JSONL events into it
// (with auto-flush, so events land per commit rather than per 4KiB buffer)
// and every streaming HTTP handler replays the buffer from its own offset —
// a reader attaching after the job finished still sees the complete stream.
//
// Readers poll with Next and park on the returned wake channel, which the
// next append closes; Close closes the final wake channel and leaves it
// closed, so late readers never block on a finished stream. An append
// replaces the channel only if Next handed it out since the previous
// append: a stream nobody is waiting on (a job whose readers are all
// between polls, or have none) appends without allocating a channel per
// event.
//
// Offsets are absolute stream positions, not buffer indices: after the owner
// Trims a finished stream to a bounded tail, the dropped prefix is simply
// unavailable and readers asking for it are advanced to the oldest retained
// byte. This keeps a manager's memory bounded in the number of completed
// jobs instead of growing with every trace ever produced. Readers that
// Attach hold the trim off: it runs when the last of them Detaches, so a
// reader already replaying loses nothing however far behind it is.
type Broadcast struct {
	mu      sync.Mutex
	buf     []byte        // guarded by: mu
	start   int           // guarded by: mu — absolute offset of buf[0]
	closed  bool          // guarded by: mu
	wake    chan struct{} // guarded by: mu
	handed  bool          // guarded by: mu — Next returned wake since the last append
	readers int           // guarded by: mu — attached readers
	keep    int           // guarded by: mu — deferred Trim's keep, or -1
}

// NewBroadcast returns an open, empty stream.
func NewBroadcast() *Broadcast {
	return &Broadcast{wake: make(chan struct{}), keep: -1}
}

// Attach registers a reader; until it Detaches, Trim only records its
// request. Every Attach must be paired with one Detach.
func (b *Broadcast) Attach() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readers++
}

// Detach unregisters a reader. When the last reader leaves, a Trim
// requested meanwhile runs.
func (b *Broadcast) Detach() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readers--
	if b.readers == 0 && b.keep >= 0 {
		b.trimLocked(b.keep)
		b.keep = -1
	}
}

// Write appends p and wakes all parked readers. It implements io.Writer so
// a trace.Recorder can write into the stream directly.
func (b *Broadcast) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errors.New("jobs: write to closed stream")
	}
	b.buf = append(b.buf, p...)
	if b.handed {
		close(b.wake)
		b.wake = make(chan struct{})
		b.handed = false
	}
	return len(p), nil
}

// Close marks the stream complete and wakes all parked readers. Further
// writes fail; reads keep returning the full buffer. Idempotent.
func (b *Broadcast) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.wake)
}

// Trim discards all but roughly the last keep bytes, advanced to the next
// line boundary so replays resume on a whole JSONL record (the final
// summary event is always last, so late readers still get it). The retained
// tail is copied into a fresh allocation, releasing the original backing
// array. Negative keep is a no-op; Trim is safe at any time but owners call
// it only after the stream is closed. While readers are attached the trim
// is deferred to the last Detach.
func (b *Broadcast) Trim(keep int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readers > 0 {
		if keep >= 0 {
			b.keep = keep
		}
		return
	}
	b.trimLocked(keep)
}

// trimLocked is Trim with no reader attached.
//
// locked: mu
func (b *Broadcast) trimLocked(keep int) {
	if keep < 0 || len(b.buf) <= keep {
		return
	}
	cut := len(b.buf) - keep
	if i := bytes.IndexByte(b.buf[cut:], '\n'); i >= 0 {
		cut += i + 1
	} else {
		cut = len(b.buf)
	}
	if cut == 0 {
		return
	}
	tail := make([]byte, len(b.buf)-cut)
	copy(tail, b.buf[cut:])
	b.start += cut
	b.buf = tail
}

// Next returns the bytes appended after absolute offset off, the new
// absolute offset, whether the stream is still open, and a channel that is
// closed on the next write (or already closed if the stream is). Offsets
// below the oldest retained byte (trimmed away, or negative) are advanced to
// it. The returned slice aliases the internal buffer with a capped capacity;
// readers must not modify it.
func (b *Broadcast) Next(off int) (data []byte, next int, open bool, wake <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < b.start {
		off = b.start
	}
	end := b.start + len(b.buf)
	if off > end {
		off = end
	}
	i := off - b.start
	b.handed = true
	return b.buf[i:len(b.buf):len(b.buf)], end, !b.closed, b.wake
}

// Bytes returns a copy of the retained tail (everything written, until the
// owner Trims a finished stream).
func (b *Broadcast) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out
}

// Resident returns the number of buffered bytes currently held — the
// observable the replay-memory tests bound after Trim.
func (b *Broadcast) Resident() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}
