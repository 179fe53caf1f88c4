package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	// Every method must be callable on a nil receiver.
	r.SetPhase(PhasePriors)
	r.Reserve(0, "c1", 1)
	r.Commit(0, "c1", 1.0, 1)
	r.CacheHit(0, "c1")
	r.DerivedFallback(0, "c1")
	r.Episode("mcts", 1, "c1", 0.5, "1,2", 0, 1)
	r.Step("greedy", 3, 0.1, 1)
	r.Slice("anytime", 1, 10, 5)
	r.Point(1, 10)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	s := r.Summary("alg", 7)
	if s.Algorithm != "alg" || s.Budget != 7 || s.TotalSpend != 0 {
		t.Fatalf("nil summary = %+v", s)
	}
}

func TestCountersAndSummary(t *testing.T) {
	r := New(nil)
	r.SetPhase(PhasePriors)
	r.Reserve(0, "a", 1)
	r.Commit(0, "a", 2.5, 1)
	r.Reserve(1, "a", 2)
	r.Commit(1, "a", 3.5, 2)
	r.SetPhase(PhaseSearch)
	r.Reserve(0, "b", 3)
	r.Commit(0, "b", 1.5, 3)
	r.CacheHit(0, "a")
	r.DerivedFallback(1, "b")
	r.Point(3, 12.5)

	s := r.Summary("test", 10)
	if s.TotalSpend != 3 || s.SpendTotal() != 3 {
		t.Fatalf("total spend = %d (sum %d), want 3", s.TotalSpend, s.SpendTotal())
	}
	if s.SpendByPhase[PhasePriors] != 2 || s.SpendByPhase[PhaseSearch] != 1 {
		t.Fatalf("spend by phase = %v", s.SpendByPhase)
	}
	if s.CacheHits != 1 || s.DerivedFallbacks != 1 || s.Commits != 3 {
		t.Fatalf("counters = %+v", s)
	}
	if s.PerQuerySpend["0"] != 2 || s.PerQuerySpend["1"] != 1 {
		t.Fatalf("per-query spend = %v", s.PerQuerySpend)
	}
	if len(s.Curve) != 1 || s.Curve[0].Spend != 3 || s.Curve[0].ImprovementPct != 12.5 {
		t.Fatalf("curve = %v", s.Curve)
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.SetPhase(PhasePriors)
	r.Reserve(4, "cfgkey", 1)
	r.Commit(4, "cfgkey", 9.25, 1)
	r.Episode("mcts", 2, "cfgkey", 0.75, "3,8", 1, 1)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 4 { // phase, reserve, commit, episode
		t.Fatalf("got %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[1].Kind != KindReserve || events[1].Query != 4 || events[1].Config != "cfgkey" {
		t.Fatalf("reserve event = %+v", events[1])
	}
	if events[2].Kind != KindCommit || events[2].Cost != 9.25 {
		t.Fatalf("commit event = %+v", events[2])
	}
	if events[3].Kind != KindEpisode || events[3].Inflight != 1 || events[3].Detail != "3,8" {
		t.Fatalf("episode event = %+v", events[3])
	}
}

func TestPointDeduplicatesSpend(t *testing.T) {
	r := New(nil)
	r.Point(5, 10)
	r.Point(5, 12)
	r.Point(5, 11) // lower improvement at same spend must not regress the curve
	r.Point(6, 13)
	s := r.Summary("", 0)
	want := []CurvePoint{{Spend: 5, ImprovementPct: 12}, {Spend: 6, ImprovementPct: 13}}
	if len(s.Curve) != len(want) {
		t.Fatalf("curve = %v", s.Curve)
	}
	for i := range want {
		if s.Curve[i] != want[i] {
			t.Fatalf("curve[%d] = %v, want %v", i, s.Curve[i], want[i])
		}
	}
}

func TestWriteSummary(t *testing.T) {
	r := New(nil)
	r.Reserve(0, "a", 1)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, r.Summary("MCTS", 100)); err != nil {
		t.Fatal(err)
	}
	var round Summary
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("summary does not round-trip: %v\n%s", err, buf.String())
	}
	if round.Algorithm != "MCTS" || round.Budget != 100 || round.TotalSpend != 1 {
		t.Fatalf("round-tripped summary = %+v", round)
	}
	if !strings.Contains(buf.String(), "spend_by_phase") {
		t.Fatalf("summary JSON missing spend_by_phase: %s", buf.String())
	}
}

func TestConcurrentRecordingIsSafe(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Reserve(g, "c", i)
				r.Commit(g, "c", 1, i)
				r.CacheHit(g, "c")
				_ = r.Summary("", 0)
			}
		}(g)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	s := r.Summary("", 0)
	if s.TotalSpend != 8*200 {
		t.Fatalf("total spend = %d, want %d", s.TotalSpend, 8*200)
	}
	if s.CacheHits != 8*200 {
		t.Fatalf("cache hits = %d", s.CacheHits)
	}
}
