package jobs

import (
	"testing"
	"time"
)

// parked parks a reader on the wake channel Next hands out and returns a
// channel closed once that reader wakes.
func parked(b *Broadcast) <-chan struct{} {
	_, _, _, wake := b.Next(0)
	woke := make(chan struct{})
	go func() {
		<-wake
		close(woke)
	}()
	return woke
}

func waitWoken(t *testing.T, woke <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatalf("reader parked before %s never woke", what)
	}
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// A reader parked on Next's channel wakes on the next Write or Close, also
// when the writer appended without anyone waiting before it parked, and
// when several readers share one handed-out channel.
func TestBroadcastWakesParkedReaders(t *testing.T) {
	b := NewBroadcast()
	b.Write([]byte("unwatched\n"))
	b.Write([]byte("unwatched\n"))
	first, second := parked(b), parked(b)
	b.Write([]byte("a\n"))
	waitWoken(t, first, "a write")
	waitWoken(t, second, "a write")

	// Next after the wake hands out a fresh channel that the write left
	// open; only the following write closes it.
	_, _, open, wake := b.Next(0)
	if !open || isClosed(wake) {
		t.Fatalf("Next after a write: open %v, wake closed %v", open, isClosed(wake))
	}
	b.Write([]byte("b\n"))
	if !isClosed(wake) {
		t.Fatal("write did not close the channel Next handed out")
	}

	last := parked(b)
	b.Close()
	waitWoken(t, last, "Close")

	// A stream closed with no channel handed out still wakes its readers.
	quiet := NewBroadcast()
	quiet.Write([]byte("x\n"))
	_, _, _, w := quiet.Next(0)
	quiet.Write([]byte("y\n"))
	quiet.Close()
	if !isClosed(w) {
		t.Fatal("Close left a handed-out channel open")
	}
}

// Next on a closed stream reports it closed and returns a closed channel,
// so a late reader never blocks.
func TestBroadcastNextAfterClose(t *testing.T) {
	for _, handed := range []bool{false, true} {
		b := NewBroadcast()
		b.Write([]byte("a\n"))
		if handed {
			b.Next(0)
		}
		b.Close()
		data, next, open, wake := b.Next(0)
		if string(data) != "a\n" || next != 2 || open || !isClosed(wake) {
			t.Fatalf("handed=%v: Next after Close = %q, %d, open %v, wake closed %v",
				handed, data, next, open, isClosed(wake))
		}
	}
}

// With no wake channel handed out since the previous write, Write only
// appends: on a buffer grown in advance it allocates nothing.
func TestBroadcastWriteWithoutReadersAllocatesNothing(t *testing.T) {
	b := NewBroadcast()
	line := []byte(`{"seq":1,"kind":"commit","phase":"search","q":3,"cfg":"1,4,9","cost":12.5,"used":1}` + "\n")
	const runs = 1000
	b.buf = make([]byte, 0, (runs+1)*len(line))
	if n := testing.AllocsPerRun(runs, func() { b.Write(line) }); n != 0 {
		t.Fatalf("Write allocated %v times per call", n)
	}
}
