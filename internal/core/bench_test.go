package core

// Micro-benchmarks for the MCTS kernels on the hot episode path, plus the
// headline latency-hiding benchmark for the parallel pipeline. `make
// bench-json` records these into BENCH_mcts.json and `make bench-check`
// gates regressions against that baseline (cmd/benchdiff).

import (
	"fmt"
	"testing"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/cost"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/workload"
)

func benchTuner(b *testing.B, budget int) *tuner {
	b.Helper()
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	s := search.NewSession(w, cands, opt, 10, budget, 1)
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	return tn
}

// oneSlot returns the slot of a one-slot pipeline over tn: it draws from the
// session RNG and evaluates its reserved pair inline.
func oneSlot(tn *tuner) *episodeSlot {
	return &episodeSlot{rng: tn.s.Rng, qi: -1, b: new(search.Batch)}
}

// BenchmarkEpisode measures one full selection/rollout/evaluation/backup
// cycle — one slot's beginEpisode + commitEpisode, as the Workers = 1
// pipeline runs it — against a huge budget (so episodes never hit the
// exhausted path).
func BenchmarkEpisode(b *testing.B) {
	tn := benchTuner(b, 1<<30)
	tn.computePriors(1)
	tn.buildPriorPrefix()
	tn.root = tn.newNode(iset.Set{}, 0)
	tn.bestCfg = iset.Set{}
	sl := oneSlot(tn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.beginEpisode(sl)
		tn.commitEpisode(sl)
	}
}

// BenchmarkEpisodeCached measures the episode cycle when no what-if request
// reaches the cost model: the budget is exhausted, so every evaluation is
// answered from the derived store. This isolates the pure search and
// accounting overhead per episode — the path dominated by cache-key
// construction before keys were interned Pair fingerprints.
func BenchmarkEpisodeCached(b *testing.B) {
	tn := benchTuner(b, 0)
	tn.buildPriorPrefix()
	tn.root = tn.newNode(iset.Set{}, 0)
	tn.bestCfg = iset.Set{}
	sl := oneSlot(tn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.beginEpisode(sl)
		tn.commitEpisode(sl)
	}
}

// BenchmarkRollout measures the randomized look-ahead rollout from the root
// (prior-proportional sampling with rejection).
func BenchmarkRollout(b *testing.B) {
	tn := benchTuner(b, 1<<30)
	tn.opts.Rollout = RolloutRandomStep
	tn.computePriors(1)
	tn.buildPriorPrefix()
	n := tn.newNode(iset.Set{}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.rollout(n)
	}
}

// BenchmarkComputePriors measures the Algorithm 4 prior phase (B = 200, so
// 100 singleton what-if calls) on a fresh session each iteration.
func BenchmarkComputePriors(b *testing.B) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := search.NewSession(w, cands, search.NewOptimizer(w, cands), 10, 200, 1)
		tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
		tn.priors = make([]float64, s.NumCandidates())
		b.StartTimer()
		tn.computePriors(1)
	}
}

// BenchmarkMCTSFixedBudgetWorkers is the headline wall-clock benchmark: a
// complete fixed-budget tuning run where every cache-missing what-if call
// carries a simulated optimizer round-trip (500µs — the real system's calls
// take much longer; see Figure 2). The parallel pipeline hides that latency
// by keeping Workers evaluations in flight, so workers=4 must finish the
// same 160-call budget well over 2x faster than workers=1. The ratio is
// asserted by `make bench-check` via cmd/benchdiff -speedup.
func BenchmarkMCTSFixedBudgetWorkers(b *testing.B) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := Default()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				opt := search.NewOptimizer(w, cands)
				opt.SimulatedLatency = 500 * time.Microsecond
				s := search.NewSession(w, cands, opt, 10, 160, 1)
				s.Workers = workers
				b.StartTimer()
				m.Enumerate(s)
			}
		})
	}
}

// BenchmarkEarlyStopCheck measures the steady-state cost of the Esc-style
// stopping rule at an enumerator commit point: floors probed, checker built,
// configuration unchanged, no new store entries. This is the per-episode
// overhead every stop-enabled run pays, so it must stay allocation-free
// (asserted by `make bench-check` via -maxallocs).
func BenchmarkEarlyStopCheck(b *testing.B) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	s := search.NewSession(w, cands, opt, 10, 1<<20, 1)
	s.StopEpsilon = 1e-12 // never fires: measures the checking, not the stop
	cfg := iset.FromOrdinals(0, 3, 5)
	s.CheckStop(cfg) // warm up: probe floors, build the checker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheckStop(cfg)
	}
}

// BenchmarkMCTSEarlyStop measures a complete tuning run that terminates via
// the stopping rule rather than budget exhaustion: a budget far past the
// point of diminishing returns with the CLI-default epsilon. The run cost is
// dominated by the episodes before the gap closes, so this tracks the
// end-to-end savings the rule delivers (and regresses if stopping breaks).
func BenchmarkMCTSEarlyStop(b *testing.B) {
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opt := search.NewOptimizer(w, cands)
		s := search.NewSession(w, cands, opt, 10, 5000, 1)
		s.StopEpsilon = search.DefaultStopEpsilon
		b.StartTimer()
		Default().Enumerate(s)
	}
}

// stoppedTPCH runs the early-stopping MCTS session BenchmarkMCTSEarlyStop
// times and returns it, its store holding every entry of the stopped run,
// together with the run's entries in recording order, cut at each
// Best-Greedy extraction: the entries at extraction i are stream[:marks[i]].
// Within the stretch between two extractions the entries are taken query
// by query, which keeps each query's recording order.
func stoppedTPCH(b *testing.B) (s *search.Session, stream []streamEntry, marks []int) {
	b.Helper()
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	s = search.NewSession(w, cands, search.NewOptimizer(w, cands), 10, 5000, 1)
	s.StopEpsilon = search.DefaultStopEpsilon
	tn := Default().newTuner(s)
	consumed := make([]int, len(w.Queries))
	tn.extracted = func(iset.Set, float64) {
		for qi, from := range consumed {
			n := s.Derived.Entries(qi)
			for pos := from; pos < n; pos++ {
				set, c := s.Derived.EntryAt(qi, pos)
				stream = append(stream, streamEntry{qi, set.ToSet(), c})
			}
			consumed[qi] = n
		}
		marks = append(marks, len(stream))
	}
	tn.enumerate()
	if !s.Stopped() || len(marks) < 4 {
		b.Fatalf("run did not stop after several checks (stopped %v, %d extractions)", s.Stopped(), len(marks))
	}
	return s, stream, marks
}

type streamEntry struct {
	qi   int
	cfg  iset.Set
	cost float64
}

// BenchmarkDerivedOnly measures one from-scratch Best-Greedy extraction
// (K = 10) over the store a stopped TPC-H MCTS run leaves: the work every
// early-stop check paid before extraction was memoized.
func BenchmarkDerivedOnly(b *testing.B) {
	s, _, _ := stoppedTPCH(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy.DerivedOnly(s, 10)
	}
}

// BenchmarkExtractRefresh measures the memoized extraction at the check
// that stops the same run: Run after the 50 episodes' worth of entries
// recorded since the previous check. Each iteration replays the entries
// into a fresh store off the clock, running the extractor at the two
// checks before, so the timed Run is a steady-state refresh.
func BenchmarkExtractRefresh(b *testing.B) {
	s, stream, marks := stoppedTPCH(b)
	// The last extraction is the final one, after the stop, with nothing new.
	checks := marks[len(marks)-4 : len(marks)-1]
	base := make([]float64, len(s.W.Queries))
	for qi := range base {
		base[qi] = s.Derived.Base(qi)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Derived = cost.NewDerivedStore(s.W, base)
		x := greedy.NewExtractor(s, 10)
		from := 0
		for j, to := range checks {
			for _, e := range stream[from:to] {
				s.Derived.Record(e.qi, e.cfg, e.cost)
			}
			from = to
			if j == len(checks)-1 {
				b.StartTimer()
			}
			x.Run()
		}
	}
}
