package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"indextune/internal/cost"
	"indextune/internal/earlystop"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
)

// Replay walks one captured trace event stream in order and rebuilds the
// layer state the run had at every point — the session's seen set and
// derived store receive the run's commits in the run's order — timing each
// layer's public calls against that state. The stream fixes the inputs, so
// the per-call times measure the layers, not the search trajectory.

// timer accumulates the time and number of timed calls of one layer call.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) add(d time.Duration, calls int) {
	t.total += d
	t.n += calls
}

// per returns the mean time per call in the given unit (0 with no calls).
func (t timer) per(unit time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n) / float64(unit)
}

// replayTimes are the per-call timings a replay accumulates.
type replayTimes struct {
	newSession, miss, hit, batchPair, charge, batchCharge timer
	seen, record, query, bounds, extract, gap             timer
	entries, streams, mismatches                          int
}

// replayCase is one captured stream with the run settings it came from.
type replayCase struct {
	inst      instance
	k, budget int
	deriveEps float64
	stream    []byte
	// checkExtract is set when the algorithm returns the Best-Greedy
	// extraction of its derived store (MCTS): the replayed store must then
	// extract exactly extracted, the key of the run's final configuration.
	checkExtract bool
	extracted    string
}

const (
	// batchPairs is the batch size of the batched-path timings: the
	// WhatIfBatch kernel gate's size.
	batchPairs = 64
	// probeEvery spaces the all-query probes (Seen and Query over the whole
	// workload, what every MCTS episode does) over commits.
	probeEvery = 16
	// hitRepeats is the number of warm WhatIf calls timed per commit.
	hitRepeats = 8
	// extractEvery is the episode interval of MCTS's early-stop check,
	// where the run extracts a Best-Greedy configuration and asks the Esc
	// checker for its gap.
	extractEvery = 50
)

// summaryPrefix starts the job-summary record that ends a daemon stream.
var summaryPrefix = []byte(`{"kind":"job-summary"`)

// errIncomplete marks a stream with events missing, which cannot be
// replayed.
var errIncomplete = errors.New("event stream has gaps")

// parseStream decodes a JSONL event stream, stopping at a job-summary line.
// It returns errIncomplete unless the events are numbered 1, 2, 3, ...
func parseStream(b []byte) ([]trace.Event, error) {
	var evs []trace.Event
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.HasPrefix(line, summaryPrefix) {
			break
		}
		var e trace.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("decoding trace event: %w", err)
		}
		if e.Seq != uint64(len(evs)+1) {
			return nil, errIncomplete
		}
		evs = append(evs, e)
	}
	return evs, nil
}

// parseConfig rebuilds a configuration from its canonical key.
func parseConfig(key string) (iset.Set, error) {
	var s iset.Set
	if key == "" {
		return s, nil
	}
	for _, f := range strings.Split(key, ",") {
		o, err := strconv.Atoi(f)
		if err != nil || o < 0 {
			return s, fmt.Errorf("bad configuration key %q", key)
		}
		s.Add(o)
	}
	return s, nil
}

// replay times one stream into t. It returns errIncomplete for a stream
// with events missing, and an error when the replayed state diverges from
// the run's: a commit the rebuilt session does not charge, or a different
// final extraction. Commits whose recorded cost the cold cost model does
// not reproduce are counted, not failed: a shared, warm optimizer can
// answer a configuration with the cached cost of another whose cache
// fingerprint collides with it.
func replay(now clock, c replayCase, t *replayTimes) error {
	evs, err := parseStream(c.stream)
	if err != nil {
		return err
	}
	w, cands := c.inst.w, c.inst.cands
	nCands := len(cands.Candidates)

	start := now()
	rs := search.NewSession(w, cands, search.NewOptimizer(w, cands), c.k, c.budget, 1)
	t.newSession.add(now().Sub(start), 1)
	rs.DeriveEpsilon = c.deriveEps
	opt := rs.Opt
	// bs replays the commits through the batched charging path against the
	// (by then warm) optimizer; ob scores them cold through WhatIfBatch.
	bs := search.NewSession(w, cands, opt, c.k, c.budget, 1)
	bs.DeriveEpsilon = c.deriveEps
	ob := search.NewOptimizer(w, cands)
	base := make([]float64, len(w.Queries))
	for qi := range base {
		base[qi] = rs.Derived.Base(qi)
	}
	shadow := cost.NewDerivedStore(w, base)

	var (
		checker  *earlystop.Checker
		batch    search.Batch
		pending  = make([][]iset.Set, len(w.Queries))
		commits  int
		episodes int
	)
	checkpoint := func() iset.Set {
		t0 := now()
		cfg, _ := greedy.DerivedOnly(rs, c.k)
		t1 := now()
		t.extract.add(t1.Sub(t0), 1)
		if checker == nil {
			checker = earlystop.New(rs.Derived, w)
		}
		t1 = now()
		checker.Gap(cfg)
		t.gap.add(now().Sub(t1), 1)
		return cfg
	}
	flushBatch := func() error {
		if batch.Len() == 0 {
			return nil
		}
		n := batch.Len()
		t0 := now()
		bs.ReserveBatch(&batch)
		bs.EvaluateReservedBatch(&batch, 1)
		bs.CommitReservedBatch(&batch)
		t.batchCharge.add(now().Sub(t0), n)
		for i := 0; i < n; i++ {
			if batch.Outcome(i) != search.BatchCharged {
				return fmt.Errorf("replay: batched session did not charge pair %d of a batch", i)
			}
		}
		batch.Reset()
		return nil
	}

	for _, e := range evs {
		switch e.Kind {
		case trace.KindCommit:
			if e.Query < 0 || e.Query >= len(w.Queries) {
				return fmt.Errorf("replay: commit for query %d out of range", e.Query)
			}
			cfg, err := parseConfig(e.Config)
			if err != nil {
				return err
			}
			qi, q := e.Query, w.Queries[e.Query]
			if nCands > 0 && cfg.Len() == nCands {
				// A floor probe on the candidate universe: the session records
				// it as the query's floor, not as an entry.
				rs.Derived.RecordFloor(qi, e.Cost)
				shadow.RecordFloor(qi, e.Cost)
				continue
			}

			known := opt.Known(q, cfg)
			t0 := now()
			got := opt.WhatIf(q, cfg)
			d := now().Sub(t0)
			if got != e.Cost {
				// The run's optimizer answered from a cache entry of another
				// configuration (see whatif.cost_mismatches); the rebuilt state
				// keeps the run's cost so it stays the run's state.
				t.mismatches++
			}
			if known {
				t.hit.add(d, 1)
			} else {
				t.miss.add(d, 1)
			}
			t0 = now()
			for i := 0; i < hitRepeats; i++ {
				opt.WhatIf(q, cfg)
			}
			t.hit.add(now().Sub(t0), hitRepeats)

			if commits%probeEvery == 0 {
				t0 = now()
				for qj := range w.Queries {
					rs.Seen(qj, cfg)
				}
				t1 := now()
				t.seen.add(t1.Sub(t0), len(w.Queries))
				for qj := range w.Queries {
					rs.Derived.Query(qj, cfg)
				}
				t.query.add(now().Sub(t1), len(w.Queries))
			}
			t0 = now()
			rs.Derived.Bounds(qi, cfg)
			t.bounds.add(now().Sub(t0), 1)

			t0 = now()
			res := rs.Reserve(qi, cfg)
			if res != search.ReserveCharged {
				return fmt.Errorf("replay: query %d config {%s} was charged by the run but not by the rebuilt session", qi, e.Config)
			}
			rs.EvaluateReserved(qi, cfg)
			rs.CommitReserved(qi, cfg, e.Cost)
			t.charge.add(now().Sub(t0), 1)

			t0 = now()
			shadow.Record(qi, cfg, e.Cost)
			t.record.add(now().Sub(t0), 1)

			batch.Add(qi, cfg)
			if batch.Len() == batchPairs {
				if err := flushBatch(); err != nil {
					return err
				}
			}
			pending[qi] = append(pending[qi], cfg)
			if len(pending[qi]) == batchPairs {
				t0 = now()
				ob.WhatIfBatch(q, pending[qi])
				t.batchPair.add(now().Sub(t0), batchPairs)
				pending[qi] = pending[qi][:0]
			}
			commits++

		case trace.KindDerivedBound:
			cfg, err := parseConfig(e.Config)
			if err != nil {
				return err
			}
			t0 := now()
			rs.Derived.Bounds(e.Query, cfg)
			t.bounds.add(now().Sub(t0), 1)

		case trace.KindDerived:
			cfg, err := parseConfig(e.Config)
			if err != nil {
				return err
			}
			t0 := now()
			rs.Derived.Query(e.Query, cfg)
			t.query.add(now().Sub(t0), 1)

		case trace.KindEpisode:
			episodes++
			if episodes%extractEvery == 0 {
				checkpoint()
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}
	final := checkpoint()
	if c.checkExtract && final.Key() != c.extracted {
		return fmt.Errorf("replay: rebuilt store extracts {%s}, run returned {%s}", final.Key(), c.extracted)
	}
	for qi := range w.Queries {
		t.entries += rs.Derived.Entries(qi)
	}
	t.streams++
	return nil
}

// replayMetrics reports the replay timings.
func replayMetrics(t *replayTimes, rep *report) {
	set := func(name string, tm timer, unit time.Duration, u string) {
		rep.set(name, tm.per(unit), u, tm.n)
	}
	set("whatif.miss_us", t.miss, time.Microsecond, "us")
	set("whatif.hit_ns", t.hit, time.Nanosecond, "ns")
	set("whatif.batch_pair_ns", t.batchPair, time.Nanosecond, "ns")
	set("search.charge_ns", t.charge, time.Nanosecond, "ns")
	set("search.batch_charge_ns", t.batchCharge, time.Nanosecond, "ns")
	set("search.seen_ns", t.seen, time.Nanosecond, "ns")
	set("search.new_session_ms", t.newSession, time.Millisecond, "ms")
	set("cost.record_ns", t.record, time.Nanosecond, "ns")
	set("cost.query_ns", t.query, time.Nanosecond, "ns")
	set("cost.bounds_ns", t.bounds, time.Nanosecond, "ns")
	set("greedy.extract_ms", t.extract, time.Millisecond, "ms")
	set("earlystop.gap_us", t.gap, time.Microsecond, "us")
	entries := 0.0
	if t.streams > 0 {
		entries = float64(t.entries) / float64(t.streams)
	}
	rep.set("cost.entries", entries, "count", t.streams)
	mismatches := 0.0
	if t.streams > 0 {
		mismatches = float64(t.mismatches) / float64(t.streams)
	}
	rep.set("whatif.cost_mismatches", mismatches, "count", t.streams)
}
