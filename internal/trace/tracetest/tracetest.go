// Package tracetest rebuilds a session's what-if call order from its trace
// event stream. The stream's commit events are the one record of which
// (query, configuration) pairs a session charged and in what order; tests
// attach a Log as the session's recorder and read the budget-allocation
// layout (Definition 1's ordered mapping φ: [B] → {B_ij}) back from it.
package tracetest

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/trace"
)

// Cell is one charged what-if call: the configuration and the workload
// query it was evaluated for.
type Cell struct {
	Config iset.Small
	Query  int
}

// Log is a recorder streaming its events into memory.
type Log struct {
	Rec *trace.Recorder
	buf bytes.Buffer
}

// New returns a Log whose Rec is ready to attach to a session.
func New() *Log {
	l := &Log{}
	l.Rec = trace.New(&l.buf)
	return l
}

// Cells flushes the recorder and returns the charged calls streamed so far,
// in commit order.
func (l *Log) Cells(tb testing.TB) []Cell {
	tb.Helper()
	if err := l.Rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	var out []Cell
	dec := json.NewDecoder(bytes.NewReader(l.buf.Bytes()))
	for dec.More() {
		var e trace.Event
		if err := dec.Decode(&e); err != nil {
			tb.Fatalf("decoding trace event: %v", err)
		}
		if e.Kind != trace.KindCommit {
			continue
		}
		cfg, err := parseKey(e.Config)
		if err != nil {
			tb.Fatalf("commit event %d: %v", e.Seq, err)
		}
		out = append(out, Cell{Config: cfg, Query: e.Query})
	}
	return out
}

// parseKey inverts iset.Set.Key: a comma-separated ascending ordinal list.
func parseKey(key string) (iset.Small, error) {
	out := iset.Small{}
	if key == "" {
		return out, nil
	}
	for _, f := range strings.Split(key, ",") {
		o, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, int32(o))
	}
	return out, nil
}

// Set returns the cell's configuration as a bitset.
func (c Cell) Set() iset.Set {
	var s iset.Set
	for _, o := range c.Config {
		s.Add(int(o))
	}
	return s
}
