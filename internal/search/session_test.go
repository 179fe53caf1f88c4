package search

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/iset"
	"indextune/internal/trace"
	"indextune/internal/vclock"
	"indextune/internal/workload"
)

func newTestSession(t *testing.T, budget int) *Session {
	t.Helper()
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := NewOptimizer(w, cands)
	return NewSession(w, cands, opt, 5, budget, 1)
}

func TestBudgetIsEnforced(t *testing.T) {
	s := newTestSession(t, 3)
	for i := 0; i < 10; i++ {
		s.WhatIf(i%len(s.W.Queries), iset.FromOrdinals(i))
	}
	if s.Used() != 3 {
		t.Fatalf("used = %d, want 3", s.Used())
	}
	if !s.Exhausted() || s.Remaining() != 0 {
		t.Fatal("budget should be exhausted")
	}
	// Exhausted calls fall back to derived costs and report ok=false.
	c, ok := s.WhatIf(0, iset.FromOrdinals(42))
	if ok {
		t.Fatal("call after exhaustion should not be ok")
	}
	if c != s.Derived.Query(0, iset.FromOrdinals(42)) {
		t.Fatal("fallback should be the derived cost")
	}
}

func TestCachedCallsAreFree(t *testing.T) {
	s := newTestSession(t, 5)
	cfg := iset.FromOrdinals(1)
	s.WhatIf(0, cfg)
	used := s.Used()
	for i := 0; i < 3; i++ {
		if _, ok := s.WhatIf(0, cfg); !ok {
			t.Fatal("cached call should be ok")
		}
	}
	if s.Used() != used {
		t.Fatalf("cached calls consumed budget: %d -> %d", used, s.Used())
	}
}

func TestLayoutMatchesBudgetUse(t *testing.T) {
	s := newTestSession(t, 4)
	s.WhatIf(0, iset.FromOrdinals(1))
	s.WhatIf(1, iset.FromOrdinals(1))
	s.WhatIf(0, iset.FromOrdinals(1)) // cached: no cell
	s.WhatIf(2, iset.FromOrdinals(1, 2))
	if s.Layout.Len() != s.Used() {
		t.Fatalf("layout cells %d != used budget %d", s.Layout.Len(), s.Used())
	}
	// Every budgeted call must be a distinct cell (cache prevents repeats).
	if got := len(s.Layout.Outcome()); got != s.Used() {
		t.Fatalf("distinct cells = %d, want %d", got, s.Used())
	}
}

func TestWhatIfRecordsDerivedEntries(t *testing.T) {
	s := newTestSession(t, 2)
	cfg := iset.FromOrdinals(3)
	c, _ := s.WhatIf(0, cfg)
	if got := s.Derived.Query(0, cfg); got != c {
		t.Fatalf("derived store did not record the call: %v vs %v", got, c)
	}
}

func TestStorageConstraint(t *testing.T) {
	s := newTestSession(t, 10)
	s.StorageLimit = 1 // essentially nothing fits
	if s.FitsStorage(iset.Set{}, 0) {
		t.Fatal("nothing should fit in 1 byte")
	}
	s.StorageLimit = 0
	if !s.FitsStorage(iset.Set{}, 0) {
		t.Fatal("no limit should always fit")
	}
	s.StorageLimit = s.Cands.Candidates[0].Index.SizeBytes(s.W.DB) + 1
	if !s.FitsStorage(iset.Set{}, 0) {
		t.Fatal("index should fit exactly")
	}
	if s.FitsStorage(iset.FromOrdinals(0), 1) {
		t.Fatal("second index should not fit")
	}
}

func TestOracleImprovementBounds(t *testing.T) {
	s := newTestSession(t, 1)
	if got := s.OracleImprovement(iset.Set{}); got != 0 {
		t.Fatalf("empty config improvement = %v, want 0", got)
	}
	full := iset.NewSet(s.NumCandidates())
	for i := 0; i < s.NumCandidates(); i++ {
		full.Add(i)
	}
	imp := s.OracleImprovement(full)
	if imp <= 0 || imp >= 1 {
		t.Fatalf("full config improvement = %v, want in (0,1)", imp)
	}
}

func TestVirtualTimeAccounting(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := NewOptimizer(w, cands)
	s := NewSession(w, cands, opt, 5, 10, 1)
	for i := 0; i < 10; i++ {
		s.WhatIf(0, iset.FromOrdinals(i))
	}
	frac := s.Clock.Fraction(vclock.BucketWhatIf)
	// The what-if share should be high, as in Figure 2 (75-93%).
	if frac < 0.7 || frac > 0.95 {
		t.Fatalf("what-if time fraction = %v, want ≈0.89", frac)
	}
	// The charged total must match the derived label factor exactly.
	want := time.Duration(float64(s.Used()) * float64(opt.PerCallTime) * TuningTimeFactor())
	if got := s.Clock.Total(); got != want {
		t.Fatalf("total virtual time = %v, want %v (TuningTimeFactor %v)", got, want, TuningTimeFactor())
	}
}

func TestPerCallLatencyTable(t *testing.T) {
	for _, name := range []string{"TPC-DS", "Real-D", "Real-M", "JOB", "TPC-H", "other"} {
		if PerCallLatency(name) <= 0 {
			t.Fatalf("latency for %s must be positive", name)
		}
	}
	// TPC-DS at 5000 calls should land near the paper's ~80 minutes.
	mins := time.Duration(5000) * PerCallLatency("TPC-DS") / time.Minute
	if mins < 60 || mins > 110 {
		t.Fatalf("TPC-DS 5000-call time = %d min, want ≈80", mins)
	}
}

type fixedAlg struct{ cfg iset.Set }

func (fixedAlg) Name() string                  { return "fixed" }
func (a fixedAlg) Enumerate(*Session) iset.Set { return a.cfg }

func TestRunPopulatesResult(t *testing.T) {
	s := newTestSession(t, 5)
	res := Run(fixedAlg{cfg: iset.FromOrdinals(0)}, s)
	if res.Algorithm != "fixed" || res.Candidates != s.NumCandidates() {
		t.Fatalf("result = %+v", res)
	}
	if res.ImprovementPct < 0 || res.ImprovementPct > 100 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
}

// scriptedAlg asks for a deterministic sequence of pairs: n distinct
// (query, config) pairs, each requested twice (the repeat is a session
// cache hit).
type scriptedAlg struct{ n int }

func (scriptedAlg) Name() string { return "scripted" }
func (a scriptedAlg) Enumerate(s *Session) iset.Set {
	for i := 0; i < a.n; i++ {
		qi := i % len(s.W.Queries)
		cfg := iset.FromOrdinals(i % s.NumCandidates())
		s.WhatIf(qi, cfg)
		s.WhatIf(qi, cfg)
	}
	return iset.FromOrdinals(0)
}

// randProbeAlg burns the whole budget on seeded-random probes, exercising
// Rng, Seen, and WhatIf the way the real enumeration algorithms do.
type randProbeAlg struct{}

func (randProbeAlg) Name() string { return "rand-probe" }
func (randProbeAlg) Enumerate(s *Session) iset.Set {
	best := iset.Set{}
	bestC := math.Inf(1)
	for it := 0; !s.Exhausted() && it < 100*s.Budget; it++ {
		var cfg iset.Set
		for j := 0; j < 3; j++ {
			cfg.Add(s.Rng.Intn(s.NumCandidates()))
		}
		qi := s.Rng.Intn(len(s.W.Queries))
		c, _ := s.WhatIf(qi, cfg)
		if c < bestC {
			bestC, best = c, cfg
		}
	}
	return best
}

// TestResultCountersAreSessionLocal is the regression test for the counter
// leak: two runs against ONE shared optimizer must each report only their
// own calls, cache hits, and virtual time — the second run's counters start
// at zero instead of continuing from optimizer-global totals.
func TestResultCountersAreSessionLocal(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := NewOptimizer(w, cands)

	s1 := NewSession(w, cands, opt, 5, 100, 1)
	r1 := Run(scriptedAlg{n: 8}, s1)
	if r1.WhatIfCalls != 8 || r1.CacheHits != 8 {
		t.Fatalf("first run: calls=%d hits=%d, want 8/8", r1.WhatIfCalls, r1.CacheHits)
	}

	s2 := NewSession(w, cands, opt, 5, 100, 2)
	r2 := Run(scriptedAlg{n: 3}, s2)
	if r2.WhatIfCalls != 3 {
		t.Fatalf("second run calls = %d, want 3 (leaked from first run?)", r2.WhatIfCalls)
	}
	if r2.CacheHits != 3 {
		t.Fatalf("second run hits = %d, want 3 (optimizer-global leak: %d)", r2.CacheHits, opt.CacheHits())
	}
	if want := 3 * opt.PerCallTime; r2.WhatIfTime != want {
		t.Fatalf("second run what-if time = %v, want %v", r2.WhatIfTime, want)
	}
	// The shared cache did its job: the second run recomputed nothing.
	if opt.Calls() != 8 {
		t.Fatalf("optimizer computed %d costs, want 8 (second run should hit the shared cache)", opt.Calls())
	}
}

// TestSharedCacheDeterminism: a run against an optimizer pre-warmed by other
// sessions must be indistinguishable from the same run against a fresh one.
func TestSharedCacheDeterminism(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	const seed, budget = 42, 30

	fresh := NewOptimizer(w, cands)
	sF := NewSession(w, cands, fresh, 5, budget, seed)
	rF := Run(randProbeAlg{}, sF)

	shared := NewOptimizer(w, cands)
	for s := int64(1); s <= 4; s++ {
		Run(randProbeAlg{}, NewSession(w, cands, shared, 5, budget, s))
	}
	sW := NewSession(w, cands, shared, 5, budget, seed)
	rW := Run(randProbeAlg{}, sW)

	if rF.Config.Key() != rW.Config.Key() {
		t.Fatalf("configs differ: %v vs %v", rF.Config, rW.Config)
	}
	if rF.ImprovementPct != rW.ImprovementPct {
		t.Fatalf("improvement differs: %v vs %v", rF.ImprovementPct, rW.ImprovementPct)
	}
	if rF.WhatIfCalls != rW.WhatIfCalls || rF.CacheHits != rW.CacheHits {
		t.Fatalf("counters differ: %d/%d vs %d/%d",
			rF.WhatIfCalls, rF.CacheHits, rW.WhatIfCalls, rW.CacheHits)
	}
	if rF.TuningTime != rW.TuningTime {
		t.Fatalf("tuning time differs: %v vs %v", rF.TuningTime, rW.TuningTime)
	}
}

// TestConcurrentSessionsSharedOptimizer shares one optimizer across 8
// concurrent sessions (run under -race in CI) and checks that every
// session's budget accounting matches a solo rerun of the same seed on a
// fresh optimizer.
func TestConcurrentSessionsSharedOptimizer(t *testing.T) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := NewOptimizer(w, cands)

	const sessions, budget = 8, 25
	results := make([]Result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(w, cands, opt, 5, budget, int64(100+i))
			results[i] = Run(randProbeAlg{}, s)
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		solo := NewSession(w, cands, NewOptimizer(w, cands), 5, budget, int64(100+i))
		want := Run(randProbeAlg{}, solo)
		got := results[i]
		if got.WhatIfCalls != want.WhatIfCalls {
			t.Fatalf("session %d calls = %d, want %d (its own budget alone)", i, got.WhatIfCalls, want.WhatIfCalls)
		}
		if got.WhatIfCalls != budget {
			t.Fatalf("session %d consumed %d calls, want full budget %d", i, got.WhatIfCalls, budget)
		}
		if got.Config.Key() != want.Config.Key() || got.ImprovementPct != want.ImprovementPct {
			t.Fatalf("session %d result differs from solo run", i)
		}
		if got.CacheHits != want.CacheHits || got.TuningTime != want.TuningTime {
			t.Fatalf("session %d accounting differs from solo run", i)
		}
	}
}

// TestSessionConcurrentChargers hammers ONE session from many goroutines
// (run under -race in CI): a mix of WhatIf and workload-sweep batch traffic
// races to exhaust the budget. However the interleaving lands, the session
// must never charge past B, and its accounting identity must hold: every
// distinct charged pair is a layout cell, so Used() == Layout.Len(), and no
// counter may drift.
func TestSessionConcurrentChargers(t *testing.T) {
	const budget = 40
	s := newTestSession(t, budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 0 {
				// Workload-level traffic: sweeps the whole query set.
				sweep(s, iset.FromOrdinals(g, g+1), 2)
				return
			}
			// Pair-level traffic, deliberately overlapping across goroutines
			// so some calls are session-cache hits.
			for i := 0; i < budget; i++ {
				qi := i % len(s.W.Queries)
				s.WhatIf(qi, iset.FromOrdinals(i%7, (i+g)%11))
			}
		}(g)
	}
	wg.Wait()

	if s.Used() > budget {
		t.Fatalf("used %d > budget %d", s.Used(), budget)
	}
	if !s.Exhausted() {
		t.Fatalf("8 goroutines of traffic left budget unexhausted: used %d", s.Used())
	}
	if s.Layout.Len() != s.Used() {
		t.Fatalf("layout cells %d != used %d", s.Layout.Len(), s.Used())
	}
	if got := len(s.Layout.Outcome()); got != s.Used() {
		t.Fatalf("distinct charged pairs = %d, want %d", got, s.Used())
	}
	if s.CacheHits() < 0 {
		t.Fatalf("cache hits = %d", s.CacheHits())
	}
}

// TestReserveCommitMatchesWhatIf pins the two-phase API against the one-shot
// path: reserving, evaluating, and committing a pair must leave the session
// in exactly the state a plain WhatIf call would, and a second Reserve of
// the same pair must be a free cache hit.
func TestReserveCommitMatchesWhatIf(t *testing.T) {
	a := newTestSession(t, 5)
	b := newTestSession(t, 5)
	cfg := iset.FromOrdinals(2, 4)

	if r := a.Reserve(1, cfg); r != ReserveCharged {
		t.Fatalf("first Reserve = %v, want charged", r)
	}
	c := a.EvaluateReserved(1, cfg)
	a.CommitReserved(1, cfg, c)

	want, ok := b.WhatIf(1, cfg)
	if !ok || c != want {
		t.Fatalf("two-phase cost %v vs WhatIf %v (ok=%v)", c, want, ok)
	}
	if a.Used() != b.Used() || a.CacheHits() != b.CacheHits() {
		t.Fatalf("accounting differs: used %d/%d hits %d/%d", a.Used(), b.Used(), a.CacheHits(), b.CacheHits())
	}
	if a.Derived.Query(1, cfg) != b.Derived.Query(1, cfg) {
		t.Fatal("derived stores differ after commit")
	}
	if r := a.Reserve(1, cfg); r != ReserveCached {
		t.Fatalf("repeat Reserve = %v, want cached", r)
	}
	// Exhaust the budget; further fresh reservations must be refused.
	for i := 0; !a.Exhausted(); i++ {
		a.WhatIf(i%len(a.W.Queries), iset.FromOrdinals(20+i))
	}
	if r := a.Reserve(0, iset.FromOrdinals(99)); r != ReserveExhausted {
		t.Fatalf("post-exhaustion Reserve = %v, want exhausted", r)
	}
	if a.Used() > 5 {
		t.Fatalf("over-charged: %d", a.Used())
	}
}

// TestEvaluateReservedBatchWorkersMatchSequential checks the batch fan-out
// on TPC-DS (enough queries to spread across workers) against one worker,
// including budget exhaustion mid-workload.
func TestEvaluateReservedBatchWorkersMatchSequential(t *testing.T) {
	w := workload.ByName("tpcds")
	cands := candgen.Generate(w, candgen.Options{})
	cfg := iset.FromOrdinals(0, 5, 9)

	// Budget 50 < |W|: the budget exhausts mid-workload on the first sweep;
	// the second sweep is all seen or derived.
	sP := NewSession(w, cands, NewOptimizer(w, cands), 5, 50, 1)
	gotFirst, gotSecond := sweep(sP, cfg, 4), sweep(sP, cfg, 4)
	sS := NewSession(w, cands, NewOptimizer(w, cands), 5, 50, 1)
	wantFirst, wantSecond := sweep(sS, cfg, 1), sweep(sS, cfg, 1)

	if gotFirst != wantFirst || gotSecond != wantSecond {
		t.Fatalf("4 workers differ: %v/%v vs %v/%v", gotFirst, gotSecond, wantFirst, wantSecond)
	}
	if sP.Used() != sS.Used() || sP.CacheHits() != sS.CacheHits() {
		t.Fatalf("accounting differs: used %d/%d hits %d/%d",
			sP.Used(), sS.Used(), sP.CacheHits(), sS.CacheHits())
	}
	if sP.Layout.Len() != sS.Layout.Len() {
		t.Fatalf("layout differs: %d vs %d", sP.Layout.Len(), sS.Layout.Len())
	}
}

// TestBatchReusesGroupStorage pins EvaluateReservedBatch's storage reuse: a
// warmed one-pair batch allocates only the optimizer's result slice, not
// fresh per-query group slices every round.
func TestBatchReusesGroupStorage(t *testing.T) {
	s := newTestSession(t, 10)
	cfg := iset.FromOrdinals(0, 3)
	b := new(Batch)
	round := func() {
		b.Reset()
		b.Add(0, cfg)
		s.ReserveBatch(b)
		s.EvaluateReservedBatch(b, 1)
		s.CommitReservedBatch(b)
	}
	round() // charge the pair; every later round is a session cache hit
	if b.Outcome(0) != BatchCharged {
		t.Fatalf("first round outcome %v, want BatchCharged", b.Outcome(0))
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Fatalf("warmed one-pair batch allocates %v times per round, want 1 (WhatIfBatch's result slice)", n)
	}
	if b.Outcome(0) != BatchCached || s.Used() != 1 {
		t.Fatalf("outcome %v used %d, want BatchCached with 1 charged call", b.Outcome(0), s.Used())
	}
}

// TestTraceSpendMatchesUsed wires a recorder into a session and checks the
// core invariant the trace layer exists for: the sum of traced per-phase
// spend equals Used() (== Result.WhatIfCalls), with cache hits, commits, and
// derived fallbacks each accounted once.
func TestTraceSpendMatchesUsed(t *testing.T) {
	s := newTestSession(t, 6)
	rec := trace.New(nil)
	s.Trace = rec
	rec.SetPhase(trace.PhasePriors)
	s.WhatIf(0, iset.FromOrdinals(0))
	s.WhatIf(0, iset.FromOrdinals(0)) // session cache hit
	rec.SetPhase(trace.PhaseSearch)
	for i := 1; i < 10; i++ { // exhausts the budget -> derived fallbacks
		s.WhatIf(i%len(s.W.Queries), iset.FromOrdinals(i))
	}
	sum := rec.Summary("test", s.Budget)
	if sum.SpendTotal() != s.Used() {
		t.Fatalf("traced spend %d != used %d (by phase: %v)", sum.SpendTotal(), s.Used(), sum.SpendByPhase)
	}
	if sum.SpendByPhase[trace.PhasePriors] != 1 {
		t.Fatalf("priors spend = %d, want 1", sum.SpendByPhase[trace.PhasePriors])
	}
	if sum.CacheHits != s.CacheHits() {
		t.Fatalf("traced cache hits %d != session %d", sum.CacheHits, s.CacheHits())
	}
	if sum.Commits != int64(s.Committed()) {
		t.Fatalf("traced commits %d != committed %d", sum.Commits, s.Committed())
	}
	if sum.DerivedFallbacks == 0 {
		t.Fatal("exhausted calls did not trace derived fallbacks")
	}
}

// TestReserveCommitRaceStress interleaves the two-phase pipeline
// (Reserve/EvaluateReserved/CommitReserved) from
// several charger goroutines with concurrent CacheHits()/Used()/Remaining()/
// Exhausted() readers while a trace recorder is attached — run under -race in
// CI. Readers pin Used() <= Budget and Remaining() >= 0 at every observation
// (outstanding reservations count as consumed, so neither can ever be
// violated transiently), and the final traced spend must equal Used().
func TestReserveCommitRaceStress(t *testing.T) {
	const budget = 60
	s := newTestSession(t, budget)
	s.Trace = trace.New(nil)

	stop := make(chan struct{})
	var violations int64
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s.Used() > budget || s.Remaining() < 0 {
					atomic.AddInt64(&violations, 1)
				}
				if s.Exhausted() && s.Used() < budget {
					atomic.AddInt64(&violations, 1)
				}
				_ = s.CacheHits()
				_ = s.Outstanding()
			}
		}()
	}

	var chargers sync.WaitGroup
	for g := 0; g < 6; g++ {
		chargers.Add(1)
		go func(g int) {
			defer chargers.Done()
			for i := 0; i < 2*budget; i++ {
				qi := (i + g) % len(s.W.Queries)
				cfg := iset.FromOrdinals(i%13, (i+g)%17)
				switch s.Reserve(qi, cfg) {
				case ReserveCharged:
					s.CommitReserved(qi, cfg, s.EvaluateReserved(qi, cfg))
				case ReserveCached:
					_ = s.EvaluateReserved(qi, cfg)
				}
			}
		}(g)
	}
	chargers.Wait()
	close(stop)
	readers.Wait()

	if v := atomic.LoadInt64(&violations); v != 0 {
		t.Fatalf("%d budget-invariant violations observed by concurrent readers", v)
	}
	if s.Used() > budget {
		t.Fatalf("used %d > budget %d", s.Used(), budget)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after all pipelines drained", s.Outstanding())
	}
	sum := s.Trace.Summary("stress", budget)
	if sum.SpendTotal() != s.Used() {
		t.Fatalf("traced spend %d != used %d", sum.SpendTotal(), s.Used())
	}
	if sum.Commits != int64(s.Committed()) {
		t.Fatalf("traced commits %d != committed %d", sum.Commits, s.Committed())
	}
}
