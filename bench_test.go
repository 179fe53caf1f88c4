package indextune

// Benchmark harness: one sub-benchmark per table and figure of the paper
// (BenchmarkFigures/<id>, see DESIGN.md's per-experiment index). Each
// regenerates its experiment at reduced fidelity (internal/experiments.Quick:
// budgets ÷10, 2 seeds) so the full suite completes in minutes; run
//
//	go run ./cmd/experiments -fig <id>
//
// for paper-fidelity series. Micro-benchmarks for the core kernels (what-if
// cost evaluation, derived-cost lookups, greedy steps, MCTS episodes) are at
// the bottom.

import (
	"fmt"
	"os"
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/core"
	"indextune/internal/experiments"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/jobs"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/trace/tracetest"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// benchCfg selects the fidelity of the figure benchmarks. The default is
// experiments.Quick (budgets ÷10, 2 seeds) so the suite completes in
// minutes; set INDEXTUNE_BENCH_CFG=full to regenerate at paper fidelity.
var benchCfg = benchConfigFromEnv()

func benchConfigFromEnv() experiments.Config {
	switch v := os.Getenv("INDEXTUNE_BENCH_CFG"); v {
	case "", "quick":
		return experiments.Quick
	case "full":
		return experiments.Full
	default:
		panic(fmt.Sprintf("INDEXTUNE_BENCH_CFG=%q: want \"quick\" or \"full\"", v))
	}
}

// BenchmarkFigures regenerates every experiment of experiments.IDs() as
// its own sub-benchmark, BenchmarkFigures/<id>.
func BenchmarkFigures(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fig, err := experiments.ByID(benchCfg, id)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Panels) == 0 {
					b.Fatal("empty figure")
				}
			}
		})
	}
}

// --- Kernel micro-benchmarks ------------------------------------------------

func benchSession(b *testing.B, wname string, k, budget int) *search.Session {
	b.Helper()
	w := workload.ByName(wname)
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	return search.NewSession(w, cands, opt, k, budget, 1)
}

// BenchmarkWhatIfCall measures one uncached what-if optimizer invocation on
// a TPC-H query with a 5-index configuration: PeekCost scoring the query's
// plan space, interned here by a first what-if call as in any search.
func BenchmarkWhatIfCall(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	q := s.W.Queries[4]
	cfg := iset.FromOrdinals(0, 3, 7, 11, 19)
	s.Opt.WhatIf(q, iset.Set{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.PeekCost(q, cfg)
	}
}

// BenchmarkDerivedLookup measures d(q, C) over a store populated by a
// 500-call greedy run.
func BenchmarkDerivedLookup(b *testing.B) {
	s := benchSession(b, "tpch", 10, 500)
	greedy.Vanilla{}.Enumerate(s)
	cfg := iset.FromOrdinals(0, 3, 7, 11, 19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Derived.Query(i%len(s.W.Queries), cfg)
	}
}

// BenchmarkSessionSeen measures the seen-set pass an MCTS episode makes
// before it picks its query: Seen for every query of TPC-H against a
// session warmed by a 500-call MCTS run, with projected keys as under the
// command-line default DeriveEpsilon, over three configurations in turn:
// the run's result, the result plus one index, and a fixed one. One op is
// one pass over the workload; it must not allocate.
func BenchmarkSessionSeen(b *testing.B) {
	s := benchSession(b, "tpch", 10, 500)
	s.DeriveEpsilon = search.DefaultDeriveEpsilon
	best := core.Default().Enumerate(s)
	cfgs := []iset.Set{best, best.With(s.NumCandidates() - 1), iset.FromOrdinals(0, 3, 7, 11, 19)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cfgs[i%len(cfgs)]
		for qi := range s.W.Queries {
			s.Seen(qi, cfg)
		}
	}
}

// BenchmarkRecorderEmit measures one trace event on the daemon's path: a
// Commit into a recorder with auto-flush on, streaming into a
// jobs.Broadcast that no reader waits on, so one op encodes the event,
// flushes it and appends it to the stream. The stream is trimmed outside
// the timer every 1<<16 events to keep memory flat. It must not allocate
// beyond the stream's amortized growth.
func BenchmarkRecorderEmit(b *testing.B) {
	stream := jobs.NewBroadcast()
	rec := trace.New(stream)
	rec.SetAutoFlush(true)
	cfg := iset.FromOrdinals(3, 17, 42, 108, 250).Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 1<<16-1 {
			b.StopTimer()
			stream.Trim(0)
			b.StartTimer()
		}
		rec.Commit(i%22, cfg, 1234.5678+float64(i%97), i+1)
	}
	b.StopTimer()
	if err := rec.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGreedyDerivedStep measures one full derived-only greedy search
// (the Best-Greedy extraction kernel) on TPC-H.
func BenchmarkGreedyDerivedStep(b *testing.B) {
	s := benchSession(b, "tpch", 10, 500)
	greedy.Vanilla{}.Enumerate(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy.DerivedOnly(s, 10)
	}
}

// BenchmarkMCTSRun measures a complete MCTS tuning run at budget 100 on
// TPC-H (priors + episodes + extraction).
func BenchmarkMCTSRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSession(b, "tpch", 10, 100)
		core.Default().Enumerate(s)
	}
}

// BenchmarkCandidateGeneration measures candidate-index generation for the
// 99-query TPC-DS workload.
func BenchmarkCandidateGeneration(b *testing.B) { benchCandidateGeneration(b, "tpcds") }

// BenchmarkCandidateGenerationRealM is its Real-M case (317 queries, 12,284
// candidates), the largest universe the fan-out sort orders.
func BenchmarkCandidateGenerationRealM(b *testing.B) { benchCandidateGeneration(b, "real-m") }

func benchCandidateGeneration(b *testing.B, name string) {
	w := workload.ByName(name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candgen.Generate(w, candgen.Options{})
	}
}

// BenchmarkWorkloadGeneration measures synthesis of the Real-M workload
// (317 queries over 474 tables), validation included.
func BenchmarkWorkloadGeneration(b *testing.B) { benchWorkloadGeneration(b, workload.RealM) }

// BenchmarkWorkloadGenerationRealD is its Real-D case (32 queries over
// 7,912 tables), which is most of a Real-D run's set-up.
func BenchmarkWorkloadGenerationRealD(b *testing.B) { benchWorkloadGeneration(b, workload.RealD) }

func benchWorkloadGeneration(b *testing.B, gen func() *workload.Workload) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen()
	}
}

// BenchmarkWhatIfCacheHit measures a what-if request answered from the
// optimizer's shared cache (the fast path every repeated pair takes).
func BenchmarkWhatIfCacheHit(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	q := s.W.Queries[4]
	cfg := iset.FromOrdinals(0, 3, 7, 11, 19)
	s.Opt.WhatIf(q, cfg) // warm the cache
	// The interned Pair key path makes cache hits allocation-free; fail loudly
	// if a regression reintroduces per-call allocations.
	if a := testing.AllocsPerRun(100, func() { s.Opt.WhatIf(q, cfg) }); a != 0 {
		b.Fatalf("cache-hit WhatIf allocates %v/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.WhatIf(q, cfg)
	}
}

// BenchmarkWhatIfCacheMiss measures a cache-missing what-if request: full
// cost-model evaluation plus cache insertion. Each iteration derives a
// distinct configuration from the iteration counter so the cache never hits.
func BenchmarkWhatIfCacheMiss(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	q := s.W.Queries[4]
	n := s.NumCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := iset.FromOrdinals(i%n, (i/n)%n, (i/(n*n))%n)
		s.Opt.WhatIf(q, cfg)
	}
}

// BenchmarkWhatIfCacheHitBounded measures the cache-hit path with a byte
// bound configured: versus BenchmarkWhatIfCacheHit it adds the CLOCK
// reference-bit maintenance — one atomic load, and at steady state (bit
// already set) no store. `make bench-check` gates it at <= 1.1x the
// unbounded hit and at 0 allocs/op.
func BenchmarkWhatIfCacheHitBounded(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	s.Opt.SetCacheBytes(64 << 20)
	q := s.W.Queries[4]
	cfg := iset.FromOrdinals(0, 3, 7, 11, 19)
	s.Opt.WhatIf(q, cfg) // warm the cache
	if a := testing.AllocsPerRun(100, func() { s.Opt.WhatIf(q, cfg) }); a != 0 {
		b.Fatalf("bounded cache-hit WhatIf allocates %v/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.WhatIf(q, cfg)
	}
}

// BenchmarkEvictionChurn measures the miss path at a cache bound far below
// the working set, so steady state interleaves cost-model evaluation,
// insertion, and CLOCK sweeps. The run fails if residency ever ends over
// capacity — the churn benchmark doubles as the memory-bound acceptance
// check.
func BenchmarkEvictionChurn(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	s.Opt.SetCacheBytes(128 << 10)
	q := s.W.Queries[4]
	n := s.NumCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := iset.FromOrdinals(i%n, (i/n)%n, (i/(n*n))%n)
		s.Opt.WhatIf(q, cfg)
	}
	b.StopTimer()
	if st := s.Opt.Stats(); st.ResidentBytes > st.CapacityBytes {
		b.Fatalf("resident %d bytes exceeds capacity %d after churn", st.ResidentBytes, st.CapacityBytes)
	}
}

// benchWhatIfBatch measures the batched cache-missing what-if path: one
// plan-space lookup per batch, every configuration scored from its own
// members' precomputed alternatives. Each loop step scores `size` fresh
// configurations but advances the counter per pair, so ns/op is per scored
// pair. Configurations follow
// the same digit recurrence as BenchmarkWhatIfCacheMiss but are updated in
// place (preallocated word storage), so the measured allocations are
// WhatIfBatch's own: the result slice, and nothing else in steady state
// (gated by -maxallocs).
func benchWhatIfBatch(b *testing.B, size int) {
	s := benchSession(b, "tpch", 10, 1)
	q := s.W.Queries[4]
	n := s.NumCandidates()
	cfgs := make([]iset.Set, size)
	for j := range cfgs {
		cfgs[j] = iset.NewSet(n)
	}
	digs := make([][3]int, size)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		for j := range cfgs {
			d := &digs[j]
			cfgs[j].Remove(d[0])
			cfgs[j].Remove(d[1])
			cfgs[j].Remove(d[2])
			c := next
			next++
			d[0], d[1], d[2] = c%n, (c/n)%n, (c/(n*n))%n
			cfgs[j].Add(d[0])
			cfgs[j].Add(d[1])
			cfgs[j].Add(d[2])
		}
		s.Opt.WhatIfBatch(q, cfgs)
	}
}

func BenchmarkWhatIfBatch8(b *testing.B)  { benchWhatIfBatch(b, 8) }
func BenchmarkWhatIfBatch64(b *testing.B) { benchWhatIfBatch(b, 64) }

// BenchmarkWhatIfBatchRealM measures batched cache-missing scoring on the
// Real-M query with the most relevant candidates, in the shape of a greedy
// step at K 10: 64 configurations cur ∪ {a}, where cur holds six fixed
// relevant candidates plus three that follow a digit recurrence over the
// query's other relevant candidates (a new cur per batch), and a is one of
// 64 further relevant candidates. Every pair projects onto a fresh
// relevant configuration, so ns/op is per scored pair; `make bench-check`
// pins it at 0 allocs/op.
func BenchmarkWhatIfBatchRealM(b *testing.B) {
	w := workload.ByName("real-m")
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	var q *workload.Query
	var rel []int
	for _, wq := range w.Queries {
		if r := opt.Relevance(wq).Ordinals(); len(r) > len(rel) {
			q, rel = wq, r
		}
	}
	const size, nfixed = 64, 6
	if len(rel) < nfixed+2*size {
		b.Fatalf("widest query has %d relevant candidates, want at least %d", len(rel), nfixed+2*size)
	}
	fixed, ext, free := rel[:nfixed], rel[nfixed:nfixed+size], rel[nfixed+size:]
	m := len(free)
	digits := func(c int) [3]int { return [3]int{free[c%m], free[(c/m)%m], free[(c/(m*m))%m]} }
	cur := digits(0)
	cfgs := make([]iset.Set, size)
	for j := range cfgs {
		cfgs[j] = iset.NewSet(len(cands.Candidates))
		for _, ord := range fixed {
			cfgs[j].Add(ord)
		}
		cfgs[j].Add(ext[j])
	}
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		d := digits(next)
		next++
		for j := range cfgs {
			for _, ord := range cur {
				cfgs[j].Remove(ord)
			}
			for _, ord := range d {
				cfgs[j].Add(ord)
			}
		}
		cur = d
		opt.WhatIfBatch(q, cfgs)
	}
}

// BenchmarkProjectionBuild measures building the relevance projections of a
// whole workload: optimizer construction plus every query's relevance
// bitmap (the one-time cost that the projected cache keys amortize), on the
// 99-query TPC-DS workload.
func BenchmarkProjectionBuild(b *testing.B) { benchRelevance(b, "tpcds") }

// BenchmarkRelevanceRealM is BenchmarkProjectionBuild on Real-M's 317
// queries and 12,284 candidates: the full relevance build that MCTS's prior
// phase and DTA's per-query greedy still pay, since they read every query's
// relevance, while a session that charges few queries builds it for those
// alone.
func BenchmarkRelevanceRealM(b *testing.B) { benchRelevance(b, "real-m") }

func benchRelevance(b *testing.B, name string) {
	w := workload.ByName(name)
	ixs := candgen.Generate(w, candgen.Options{}).Indexes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := whatif.New(w.DB, ixs)
		for _, q := range w.Queries {
			o.Relevance(q)
		}
	}
}

// BenchmarkNewSessionRealM measures the cold start every tuning run pays on
// the largest workload: a fresh optimizer over Real-M's 12,284 candidates
// (each filed under its table; no column masks are built yet) plus a
// session at K 10 and B 5000, whose set-up interns all 317 queries and
// scores every baseline cost on each query's plan skeleton. It builds no
// relevance bitmap: that is left to first need (BenchmarkRelevanceRealM
// measures building all of them).
func BenchmarkNewSessionRealM(b *testing.B) {
	w := workload.ByName("real-m")
	cands := candgen.Generate(w, candgen.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := search.NewOptimizer(w, cands)
		search.NewSession(w, cands, opt, 10, 5000, 1)
	}
}

// BenchmarkWhatIfProjectedCacheHit measures a what-if request whose
// configuration was never asked before but projects onto a cached entry:
// the variants differ from the warmed configuration only in indexes
// irrelevant to the query, so the projected key collapses them to one entry
// and the request is a pure cache hit.
func BenchmarkWhatIfProjectedCacheHit(b *testing.B) {
	s := benchSession(b, "tpch", 10, 1)
	q := s.W.Queries[4]
	rel := s.Opt.Relevance(q)
	var warm iset.Set
	for _, ord := range rel.Ordinals() {
		warm.Add(ord)
		if warm.Len() == 3 {
			break
		}
	}
	var variants []iset.Set
	for i := 0; i < s.NumCandidates() && len(variants) < 8; i++ {
		if !rel.Has(i) {
			variants = append(variants, warm.With(i))
		}
	}
	if len(variants) == 0 {
		b.Fatal("no irrelevant candidates for the benchmark query")
	}
	s.Opt.WhatIf(q, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.WhatIf(q, variants[i%len(variants)])
	}
}

// BenchmarkBoundDerivation measures one Bounds scan — the kernel behind
// bound-based call interception — against a derived store populated by a
// 500-call greedy run.
func BenchmarkBoundDerivation(b *testing.B) {
	s := benchSession(b, "tpch", 10, 500)
	greedy.Vanilla{}.Enumerate(s)
	cfg := iset.FromOrdinals(0, 3, 7, 11, 19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Derived.Bounds(i%len(s.W.Queries), cfg)
	}
}

// BenchmarkBoundDerivationRealM measures Bounds against the derived store
// left by a Real-M two-phase run at B=5000 (317 queries, 12,284 candidates,
// so every configuration spans 192 bitset words), probing the (query,
// configuration) pairs the run charged, in charge order.
func BenchmarkBoundDerivationRealM(b *testing.B) {
	s := benchSession(b, "real-m", 10, 5000)
	s.DeriveEpsilon = search.DefaultDeriveEpsilon
	s.StopEpsilon = search.DefaultStopEpsilon
	log := tracetest.New()
	s.Trace = log.Rec
	search.Run(greedy.TwoPhase{}, s)
	cells := log.Cells(b)
	probes := make([]iset.Set, len(cells))
	for i, c := range cells {
		probes[i] = iset.NewSet(s.NumCandidates())
		for _, o := range c.Config {
			probes[i].Add(int(o))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(cells)
		s.Derived.Bounds(cells[k].Query, probes[k])
	}
}

// BenchmarkPublicTune measures the end-to-end public API path.
func BenchmarkPublicTune(b *testing.B) {
	w := Workload("tpch")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tune(w, Options{K: 5, Budget: 50, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
