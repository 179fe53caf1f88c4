// Package search provides the shared context for budget-aware configuration
// enumeration: a Session bundles the workload, candidate set, what-if
// optimizer, derived-cost store, budget meter, and tuning constraints
// (cardinality K and optional storage limit). All enumeration algorithms —
// greedy variants, MCTS, the RL baselines, and the DTA simulator — run
// against a Session.
//
// The what-if optimizer may be shared across sessions (and across
// goroutines): all budget accounting is session-local. A session charges its
// budget the first time *it* asks for a (query, configuration) pair — the
// paper's semantics for the per-run budget B — while the optimizer's global
// cache still answers repeated evaluations without recomputing the cost
// model. Results are therefore identical whether the optimizer is fresh or
// warm from other runs.
package search

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/cost"
	"indextune/internal/earlystop"
	"indextune/internal/iset"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// otherPerCallDivisor fixes the simulated non-what-if overhead (plan
// analysis, bookkeeping) at PerCallTime/otherPerCallDivisor per budgeted
// call (Figure 2's "other" share). Axis-label minute conversions must use
// TuningTimeFactor so labels match the simulated time Run reports.
const otherPerCallDivisor = 8

// TuningTimeFactor is the ratio of simulated tuning time to pure what-if
// time: each budgeted call costs PerCallTime +
// PerCallTime/otherPerCallDivisor.
func TuningTimeFactor() float64 {
	return 1 + 1/float64(otherPerCallDivisor)
}

// DefaultDeriveEpsilon is the relative bound-gap tolerance the command-line
// tools enable by default: an unseen (query, configuration) pair whose
// monotonicity-derived bounds satisfy (hi − lo) ≤ ε·hi is answered from the
// bound midpoint without charging budget (the Wii-style interception). The
// library default remains 0 — interception off, results bit-identical to the
// uninstrumented session — so programmatic callers opt in explicitly.
const DefaultDeriveEpsilon = 0.05

// DefaultStopEpsilon is the early-stopping tolerance the command-line tools
// enable by default: a run whose bound gap — the best possible remaining
// improvement, as a fraction of the baseline workload cost — falls below ε is
// terminated and its unspent budget refunded (the Esc-style stopping rule;
// see CheckStop). The library default remains 0 — stopping off, results
// bit-identical to a session without the checker — so programmatic callers
// opt in explicitly.
//
// The value is calibrated on TPC-H at K=10, B=5000 (the paper's headline
// operating point), where the gap at the returned configuration plateaus
// just below 0.10 for both two-phase greedy and MCTS extraction: at 0.1
// both stop with large charged-call reductions (two-phase 2488→2145, MCTS
// 5000→1760) at unchanged final improvement, while 0.12 already costs MCTS
// almost a point of improvement and 0.08 fires too late to save anything.
const DefaultStopEpsilon = 0.1

// floorProbeHeadroom gates the floor probes behind a minimum remaining
// budget, as a multiple of the workload size: probing costs one charged call
// per query, which only pays off when enough budget remains for stopping to
// matter. Runs whose budget is within floorProbeHeadroom·|W| of exhaustion
// never probe and behave as if StopEpsilon were 0.
const floorProbeHeadroom = 4

// Session is the budget-aware tuning context. Create one per tuning run via
// NewSession.
//
// Budget charging (WhatIf, the Batch pipeline, Reserve/CommitReserved, and
// the read-side counters) is safe for concurrent use by multiple goroutines:
// the seen-pair set and all bookkeeping are guarded by an internal mutex and
// the counters and stop flags are typed atomics, so concurrent chargers can
// never push Used past Budget or double-charge a pair. The remaining fields
// (Rng, Derived reads outside the charging methods) follow the
// single-owner convention: one goroutine drives the algorithm and hands heavy
// evaluations to helpers via EvaluateReservedBatch (see internal/core's
// parallel MCTS pipeline).
type Session struct {
	W     *workload.Workload
	Cands *candgen.Result
	Opt   *whatif.Optimizer

	// Constraints (the Γ of Figure 1).
	K            int   // cardinality constraint on the returned configuration
	StorageLimit int64 // maximum total index bytes; 0 disables the constraint

	// Budget on the number of what-if calls (Section 3.2).
	Budget int

	Derived *cost.DerivedStore
	Rng     *rand.Rand

	// Workers is the intra-session parallelism for algorithms that support
	// it (currently the MCTS tuner, which keeps up to Workers episodes in
	// flight). 0 or 1 selects one episode in flight, evaluated inline — the
	// setting all paper figures use.
	Workers int

	// Trace, when non-nil, receives the session's budget-accounting events
	// and metrics (reserve/commit, cache hits, derived fallbacks). Its
	// commit events are the record of which (query, configuration) pairs
	// were charged, in charge order — the ordered layout φ of Definition 1.
	// A nil recorder disables tracing at zero cost; hot paths guard with a
	// nil check so no event fields are materialized when disabled.
	Trace *trace.Recorder

	// DeriveEpsilon enables Wii-style bound interception when positive: an
	// unseen pair whose derived cost bounds satisfy (hi − lo) ≤ ε·hi is
	// answered from the bound midpoint without charging budget, and the
	// session's seen-pair accounting switches to relevance-projected keys so
	// pairs that are provably cost-identical (configs differing only in
	// indexes irrelevant to the query) collapse to one charge. 0 disables
	// both: accounting uses unprojected keys and every result is
	// bit-identical to a session without the interception layer.
	DeriveEpsilon float64

	// StopEpsilon enables Esc-style early stopping when positive: at
	// enumerator commit points, CheckStop bounds the best possible remaining
	// improvement from monotonicity-derived cost floors, and when that bound
	// gap falls at or below ε the session is stopped — Exhausted() turns
	// true, further Reserves are refused, and the unspent budget is refunded
	// (RefundedBudget). 0 disables the checker entirely: no floor probes, no
	// gap computation, results bit-identical to a session without the
	// stopping layer at any worker count.
	StopEpsilon float64

	// Ctx, when non-nil, carries the caller's cancellation signal into the
	// run: the first charge attempt after the context is done is refused
	// like an over-budget pair and terminates the session, with the exact
	// refund semantics of an early stop (Exhausted() turns true, further
	// Reserves are refused, Used() + RefundedBudget() == Budget). A nil or
	// never-cancelled context leaves every path bit-identical to a session
	// without the cancellation layer at any worker count.
	Ctx context.Context

	// mu guards seen and the bookkeeping performed by CommitReserved
	// (derived store, commit events).
	mu sync.Mutex
	// seen tracks the (query, configuration) pairs this session has already
	// asked for: the first ask is charged against the budget, repeats are
	// free session cache hits. Keys are whatif.Pair fingerprints — projected
	// iff DeriveEpsilon > 0 (see pairFor) — in an open-addressed set, so
	// membership tests allocate nothing.
	seen pairSet // guarded by: mu
	// keys holds each query's interned identity, resolved by pairFor on the
	// query's first use and kept, so later pairs cost one atomic load and
	// never consult the optimizer's intern map, and the session builds no
	// relevance bitmap for a query it never keys.
	keys []atomic.Pointer[whatif.QueryKey]
	// The counters are typed atomics: readers may be concurrent with
	// chargers holding mu. used counts every charged reservation —
	// including reserved-but-uncommitted calls, so Remaining/Exhausted can
	// never let concurrent chargers over-reserve past Budget. boundHits
	// counts unseen pairs answered from derived cost bounds without
	// charging budget.
	used      atomic.Int64
	cacheHits atomic.Int64
	boundHits atomic.Int64

	// Early-stopping state. stopped and cancelled are atomic flags
	// (chargers on any goroutine consult them via Exhausted; cancelled is
	// raised by reserve under mu); the rest follows the single-owner
	// convention — only the coordinator goroutine calls CheckStop, and
	// stopGap is written before the stopped flag is raised, so readers that
	// observe the flag see it complete.
	stopped   atomic.Bool
	cancelled atomic.Bool
	stopGap   float64
	stopper   *earlystop.Checker
	floorNext int      // next query to floor-probe; len(W.Queries) when done
	univ      iset.Set // the full candidate universe, built by the first probe
}

// NewSession builds a session. Baseline costs c(q, ∅) are computed up front
// (they come from workload analysis, not from the budget); scoring them
// interns every query in workload order, so query ids do not depend on
// which queries the run later charges.
func NewSession(w *workload.Workload, cands *candgen.Result, opt *whatif.Optimizer, k, budget int, seed int64) *Session {
	base := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		base[i] = opt.BaseCost(q)
	}
	return &Session{
		W:       w,
		Cands:   cands,
		Opt:     opt,
		K:       k,
		Budget:  budget,
		Derived: cost.NewDerivedStore(w, base),
		Rng:     rand.New(rand.NewSource(seed)),
		keys:    make([]atomic.Pointer[whatif.QueryKey], len(w.Queries)),
	}
}

// pairFor returns the seen-set key of (q_i, cfg). With interception on,
// the key is relevance-projected: two configurations with identical
// projections have provably identical costs, so collapsing them to one
// budget charge answers the repeat exactly, for free. With interception off
// the key distinguishes every configuration, matching the historical
// string-keyed accounting bit for bit.
func (s *Session) pairFor(qi int, cfg iset.Set) whatif.Pair {
	k := s.keys[qi].Load()
	if k == nil {
		k = s.resolveKey(qi)
	}
	if s.DeriveEpsilon > 0 {
		return k.Pair(cfg)
	}
	return k.UnprojectedPair(cfg)
}

// resolveKey resolves and keeps query qi's key. Concurrent first uses may
// both resolve; they store equal keys.
func (s *Session) resolveKey(qi int) *whatif.QueryKey {
	k := s.Opt.KeyOf(s.W.Queries[qi])
	s.keys[qi].Store(&k)
	return &k
}

// Used returns the number of budgeted what-if calls charged so far. It
// includes outstanding (reserved-but-uncommitted) calls, so mid-pipeline
// readers see the budget a concurrent charger has already claimed.
func (s *Session) Used() int { return int(s.used.Load()) }

// Remaining returns the unconsumed budget. Outstanding reservations count as
// consumed — the pipeline has already claimed them — so Remaining is never
// transiently negative and algorithms cannot over-reserve past Budget.
func (s *Session) Remaining() int { return s.Budget - s.Used() }

// Exhausted reports whether the session will charge no further calls: the
// budget has run out (counting outstanding reservations like Remaining
// does), the early-stopping rule has terminated the run, or the run was
// cancelled through Ctx.
func (s *Session) Exhausted() bool {
	return s.Used() >= s.Budget || s.stopped.Load() || s.cancelled.Load()
}

// Stopped reports whether the early-stopping rule terminated the session.
func (s *Session) Stopped() bool { return s.stopped.Load() }

// Cancelled reports whether the session was terminated by Ctx cancellation
// (observed by a charge attempt).
func (s *Session) Cancelled() bool { return s.cancelled.Load() }

// StopGap returns the bound gap recorded at stop time (0 unless Stopped).
func (s *Session) StopGap() float64 {
	if !s.Stopped() {
		return 0
	}
	return s.stopGap
}

// RefundedBudget returns the budget left uncharged because the session
// stopped early or was cancelled (0 otherwise): Used() + RefundedBudget()
// == Budget for a stopped or cancelled run. It is computed against the
// current Budget, so callers that temporarily narrow Budget (anytime
// slices) read the true refund once the full budget is restored.
func (s *Session) RefundedBudget() int {
	if !s.Stopped() && !s.Cancelled() {
		return 0
	}
	if r := s.Budget - s.Used(); r > 0 {
		return r
	}
	return 0
}

// CacheHits returns the number of this session's what-if requests that were
// repeats of pairs it had already asked for (answered without budget).
func (s *Session) CacheHits() int64 { return s.cacheHits.Load() }

// BoundHits returns the number of unseen pairs answered from derived cost
// bounds without charging budget (always 0 when DeriveEpsilon is 0).
func (s *Session) BoundHits() int64 { return s.boundHits.Load() }

// OracleCacheStats returns the shared optimizer's cache statistics — the
// cross-job view (entries, resident bytes, lifetime hit rate, evictions,
// plan spaces), not this session's accounting. The service layer stamps it
// into trace summaries; it performs no cost queries and touches no budget.
func (s *Session) OracleCacheStats() whatif.CacheStats { return s.Opt.Stats() }

// Seen reports whether this session has already evaluated (q_i, cfg), i.e.
// whether a repeat request would be answered without consuming budget.
func (s *Session) Seen(qi int, cfg iset.Set) bool {
	p := s.pairFor(qi, cfg)
	s.mu.Lock()
	ok := s.seen.has(p)
	s.mu.Unlock()
	return ok
}

// NumCandidates returns the size of the candidate universe.
func (s *Session) NumCandidates() int { return len(s.Cands.Candidates) }

// Relevant returns the ascending ordinals of the candidates that can affect
// query qi: the optimizer's relevance set (DESIGN §10) together with the
// candidates generated for qi, which include pure-covering fallbacks the
// relevance criterion need not admit. Query-level tuning and Algorithm 4's
// singleton priors iterate over this list.
func (s *Session) Relevant(qi int) []int {
	rel := s.Opt.Relevance(s.W.Queries[qi])
	for _, o := range s.Cands.PerQuery[qi] {
		rel.Add(o)
	}
	return rel.Ordinals()
}

// Reservation is the outcome of Reserve: how a (query, configuration) pair
// relates to this session's budget at reservation time.
type Reservation int

// Reservation outcomes.
const (
	// ReserveCharged: the pair was unseen and one unit of budget was charged;
	// the caller owes a matching CommitReserved with the evaluated cost.
	ReserveCharged Reservation = iota
	// ReserveCached: the pair was already seen by this session; evaluation is
	// free (counted as a session cache hit) and needs no commit.
	ReserveCached
	// ReserveExhausted: the pair is unseen and the budget has run out; the
	// caller must fall back to the derived cost.
	ReserveExhausted
)

// reserve is the per-pair charging decision every entry point shares
// (ReserveBatch, WhatIf, Reserve, and the floor probes): a pair this session
// already asked for is a free cache hit; with intercept set and
// DeriveEpsilon > 0, an unseen pair whose derived bounds are tight is
// answered from the bound midpoint without charging; otherwise an unseen
// pair is refused when the session is Exhausted (budget spent, stopped or
// cancelled), and charged one unit — marked seen — when not. A charge
// attempt is where cancellation is observed: once Ctx is done the pair is
// refused and the session cancelled, by a non-blocking receive polled at
// most once per charged call and never once the session is exhausted.
// It emits no trace events (settle emits the cancel for r.cancel); r.key
// must already hold pairFor(r.qi, r.cfg).
//
// locked: mu
func (s *Session) reserve(r *request, intercept bool) {
	if s.seen.has(r.key) {
		s.cacheHits.Add(1)
		r.out = BatchCached
		return
	}
	if intercept {
		if mid, gap, ok := s.boundAnswer(r.qi, r.cfg); ok {
			s.boundHits.Add(1)
			r.out, r.cost, r.gap = BatchBound, mid, gap
			return
		}
	}
	if s.Exhausted() {
		r.out = BatchExhausted
		return
	}
	if s.Ctx != nil {
		select {
		case <-s.Ctx.Done():
			s.cancelled.Store(true)
			r.out, r.cancel = BatchExhausted, true
			return
		default:
		}
	}
	r.usedAt = int(s.used.Add(1))
	s.seen.add(r.key)
	r.out = BatchCharged
}

// boundAnswer is the Wii-style interception test: with DeriveEpsilon > 0,
// the derived bounds of (q_i, cfg) satisfying (hi − lo) ≤ ε·hi yield the
// bound midpoint (relative error at most ε/2) and the relative gap.
//
// locked: mu
func (s *Session) boundAnswer(qi int, cfg iset.Set) (mid, gap float64, ok bool) {
	if s.DeriveEpsilon <= 0 {
		return 0, 0, false
	}
	lo, hi := s.Derived.Bounds(qi, cfg)
	if hi-lo > s.DeriveEpsilon*hi {
		return 0, 0, false
	}
	if hi > 0 {
		gap = (hi - lo) / hi
	}
	return (hi + lo) / 2, gap, true
}

// settle completes a reserved pair and emits its trace events: a charged
// pair is committed (preceded by its Reserve event), a cached or
// bound-answered pair is witnessed, and an exhausted pair is answered from
// the derived cost computed now, after every earlier commit (preceded by
// the Cancel event when its reserve observed the cancellation).
//
// locked: mu
func (s *Session) settle(r *request) {
	switch r.out {
	case BatchCharged:
		// The pair's Reserve and Commit events carry one formatted key.
		var key string
		if s.Trace != nil {
			key = r.cfg.Key()
			s.Trace.Reserve(r.qi, key, r.usedAt)
		}
		s.commit(r, r.usedAt, key)
	case BatchCached:
		if s.Trace != nil {
			s.Trace.CacheHit(r.qi, r.cfg.Key())
		}
	case BatchBound:
		if s.Trace != nil {
			s.Trace.DerivedBound(r.qi, r.cfg.Key(), r.cost, r.gap)
		}
	default:
		s.traceCancel(r)
		r.cost = s.Derived.Query(r.qi, r.cfg)
		if s.Trace != nil {
			s.Trace.DerivedFallback(r.qi, r.cfg.Key())
		}
	}
}

// traceCancel emits the Cancel event of the one pair whose reserve observed
// the cancellation, carrying the refund and spend at that decision.
//
// locked: mu
func (s *Session) traceCancel(r *request) {
	if r.cancel && s.Trace != nil {
		s.Trace.Cancel(s.RefundedBudget(), s.Used())
	}
}

// commit is the per-pair commit bookkeeping of a charged pair: its cost is
// recorded in the derived store (as the query's floor for a floor probe) and
// its Commit trace event emitted. used is the budget counter the event
// carries and key the pair's formatted configuration, which callers fill
// in when s.Trace is set.
//
// locked: mu
func (s *Session) commit(r *request, used int, key string) {
	if r.floor {
		// A universe-sized entry would put every query on every candidate's
		// touched list, destroying the sparsity the greedy fast path and the
		// incremental checker rely on, while the floor still tightens Bounds
		// for every configuration (everything is a subset of U).
		s.Derived.RecordFloor(r.qi, r.cost)
	} else {
		s.Derived.Record(r.qi, r.cfg, r.cost)
	}
	if s.Trace != nil {
		s.Trace.Commit(r.qi, key, r.cost, used)
	}
}

// Reserve performs the accounting half of a what-if request: it decides —
// atomically with respect to other chargers — whether the pair is a session
// cache hit, a fresh budgeted call, or over budget, and charges the budget
// (marking the pair seen) in the ReserveCharged case. The expensive
// evaluation is left to EvaluateReserved, so callers can pipeline it on
// other goroutines while reservations keep happening in a deterministic
// order. Reserve + EvaluateReserved + CommitReserved is equivalent to WhatIf
// without bound interception.
func (s *Session) Reserve(qi int, cfg iset.Set) Reservation {
	r := request{qi: qi, cfg: cfg, key: s.pairFor(qi, cfg)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserve(&r, false)
	switch r.out {
	case BatchCached:
		if s.Trace != nil {
			s.Trace.CacheHit(qi, cfg.Key())
		}
		return ReserveCached
	case BatchExhausted:
		s.traceCancel(&r)
		return ReserveExhausted
	}
	if s.Trace != nil {
		s.Trace.Reserve(qi, cfg.Key(), r.usedAt)
	}
	return ReserveCharged
}

// EvaluateReserved computes the what-if cost of a pair previously passed to
// Reserve. It performs no session bookkeeping — the optimizer's sharded
// cache is concurrency-safe and the cost model deterministic — so any number
// of reserved evaluations may run on concurrent goroutines.
func (s *Session) EvaluateReserved(qi int, cfg iset.Set) float64 {
	return s.Opt.WhatIf(s.W.Queries[qi], cfg)
}

// CommitReserved completes a ReserveCharged reservation: the call is
// recorded in the derived store and emitted as a commit event. Calling it in
// reservation order makes the commit events and the derived-store contents
// independent of evaluation concurrency.
func (s *Session) CommitReserved(qi int, cfg iset.Set, c float64) {
	r := request{qi: qi, cfg: cfg, key: s.pairFor(qi, cfg), cost: c}
	var key string
	if s.Trace != nil {
		key = cfg.Key()
	}
	s.mu.Lock()
	s.commit(&r, s.Used(), key)
	s.mu.Unlock()
}

// CheckStop runs the Esc-style early-stopping rule at an enumerator commit
// point: it bounds the best possible remaining improvement of the run whose
// current configuration is cfg, and when that bound gap is at or below
// StopEpsilon it stops the session — Exhausted() turns true, further
// Reserves are refused, and the unspent budget is refunded. It returns
// whether the session is (now) stopped.
//
// The bound comes from per-query cost floors c(q, U) probed on the full
// candidate universe: one charged what-if call per query, started only once
// Remaining() affords them (floorProbeHeadroom) and resumed across calls if
// the budget momentarily runs out. By Assumption 1 every configuration's
// cost is at least its query's floor, so the gap Σ w(q)·(d(q,cfg) −
// floor(q)) / cost(W, ∅) soundly caps what any continuation can still gain.
// The floors also tighten Bounds' lower bounds, so with DeriveEpsilon > 0
// they make the Wii-style interception fire more often — the two layers
// compound.
//
// CheckStop follows the single-owner convention: call it only from the
// goroutine driving the algorithm (the parallel MCTS coordinator calls it in
// commit order, keeping Workers=N deterministic). With StopEpsilon == 0 it
// is an immediate no-op.
func (s *Session) CheckStop(cfg iset.Set) bool {
	if s.StopEpsilon <= 0 {
		return false
	}
	if s.Stopped() || s.Cancelled() {
		return true
	}
	if s.Used() >= s.Budget {
		// Nothing left to save: a budget-exhausted run is not "stopped
		// early", and the distinction keeps Result reporting unambiguous.
		return false
	}
	s.probeFloors()
	if s.Cancelled() {
		// A floor probe observed the cancellation: the run winds down with
		// the cancel's refund, and no gap is computed.
		return true
	}
	if s.stopper == nil {
		s.stopper = earlystop.New(s.Derived, s.W)
	}
	gap := s.stopper.Gap(cfg)
	if gap <= s.StopEpsilon {
		s.stopGap = gap
		s.stopped.Store(true)
		if s.Trace != nil {
			s.Trace.Stop(gap, s.RefundedBudget(), s.Used())
		}
		return true
	}
	return false
}

// probeFloors charges the per-query universe probes the stopping bound
// needs, resuming where a budget-exhausted earlier attempt left off. Probes
// are ordinary charged calls in query order — deterministic, and refundable
// like any other spend when the run later stops.
func (s *Session) probeFloors() {
	nq := len(s.W.Queries)
	if s.floorNext >= nq {
		return
	}
	if s.floorNext == 0 && s.Remaining() < floorProbeHeadroom*nq {
		return
	}
	if s.univ.Empty() {
		s.univ = iset.NewSet(s.NumCandidates())
		for ord := 0; ord < s.NumCandidates(); ord++ {
			s.univ.Add(ord)
		}
	}
	for s.floorNext < nq {
		qi := s.floorNext
		r := request{qi: qi, cfg: s.univ, key: s.pairFor(qi, s.univ), floor: true}
		s.mu.Lock()
		s.reserve(&r, false)
		if r.out == BatchExhausted {
			s.traceCancel(&r)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		r.cost = s.Opt.WhatIf(s.W.Queries[qi], s.univ)
		s.mu.Lock()
		s.settle(&r)
		if r.out == BatchCached {
			s.Derived.RecordFloor(qi, r.cost)
		}
		s.mu.Unlock()
		s.floorNext++
	}
}

// WhatIf requests the what-if cost c(q_i, cfg). If this session already
// asked for the pair, the answer is returned without consuming budget.
// Otherwise, when bound interception is enabled and the derived bounds are
// within epsilon, the bound midpoint is returned without consuming budget.
// Otherwise one unit of budget is consumed, the call is recorded in the
// derived store and emitted as a commit event, and ok is true — even when a
// shared optimizer answers from a cache warmed by another session, so
// per-run budget consumption is independent of cache sharing.
// When the budget is exhausted and the pair is unseen, ok is false and the
// derived cost is returned instead.
func (s *Session) WhatIf(qi int, cfg iset.Set) (c float64, ok bool) {
	r := request{qi: qi, cfg: cfg, key: s.pairFor(qi, cfg)}
	s.mu.Lock()
	s.reserve(&r, true)
	s.mu.Unlock()
	if r.out == BatchCharged || r.out == BatchCached {
		r.cost = s.Opt.WhatIf(s.W.Queries[qi], cfg)
	}
	s.mu.Lock()
	s.settle(&r)
	s.mu.Unlock()
	return r.cost, r.out != BatchExhausted
}

// ConfigSizeBytes returns the storage footprint of cfg.
func (s *Session) ConfigSizeBytes(cfg iset.Set) int64 {
	return s.Opt.ConfigSizeBytes(cfg)
}

// FitsStorage reports whether cfg extended by candidate ord stays within the
// storage limit (always true when no limit is set).
func (s *Session) FitsStorage(cfg iset.Set, ord int) bool {
	if s.StorageLimit <= 0 {
		return true
	}
	return s.ConfigSizeBytes(cfg)+s.Cands.Candidates[ord].Index.SizeBytes(s.W.DB) <= s.StorageLimit
}

// OracleImprovement evaluates the true what-if improvement η(W, cfg)
// (Equation 4) of a final configuration without touching the budget — the
// paper measures returned configurations "in terms of the actual what-if
// cost".
func (s *Session) OracleImprovement(cfg iset.Set) float64 {
	base, tuned := 0.0, 0.0
	for qi, q := range s.W.Queries {
		w := q.EffectiveWeight()
		base += s.Derived.Base(qi) * w
		tuned += s.Opt.PeekCost(q, cfg) * w
	}
	if base <= 0 {
		return 0
	}
	return 1 - tuned/base
}

// Algorithm is a budget-aware configuration enumeration algorithm.
type Algorithm interface {
	// Name returns a short display name.
	Name() string
	// Enumerate searches for the best configuration under the session's
	// budget and constraints.
	Enumerate(s *Session) iset.Set
}

// Result summarizes one tuning run.
type Result struct {
	Algorithm      string
	Config         iset.Set
	ImprovementPct float64 // oracle improvement of Config, in percent
	WhatIfCalls    int
	CacheHits      int64
	// DerivedBoundHits counts what-if requests intercepted by derived cost
	// bounds and answered without budget (0 unless DeriveEpsilon > 0).
	DerivedBoundHits int64
	Candidates       int
	// TuningTime and WhatIfTime are simulated, derived from the spend: each
	// charged call costs PerCallTime of what-if time plus
	// PerCallTime/otherPerCallDivisor of other tuning work.
	TuningTime time.Duration
	WhatIfTime time.Duration
	// EarlyStopped reports whether the run was terminated by the
	// StopEpsilon rule rather than by budget exhaustion or convergence.
	EarlyStopped bool
	// Cancelled reports whether the run was terminated by Ctx cancellation;
	// Config is then the partial result assembled from everything learned.
	Cancelled bool
	// StopGap is the bound gap at stop time (0 unless EarlyStopped).
	StopGap float64
	// RefundedBudget is the budget left uncharged by the early stop or the
	// cancellation, so WhatIfCalls + RefundedBudget == Budget for
	// early-stopped and cancelled runs.
	RefundedBudget int
}

// Run executes alg within the session and evaluates the returned
// configuration with the oracle. All counters and times in the Result are
// session-local: sharing one optimizer across runs does not leak calls,
// cache hits, or simulated time between their Results.
func Run(alg Algorithm, s *Session) Result {
	cfg := alg.Enumerate(s)
	used := time.Duration(s.Used())
	r := Result{
		Algorithm:        alg.Name(),
		Config:           cfg,
		ImprovementPct:   100 * s.OracleImprovement(cfg),
		WhatIfCalls:      s.Used(),
		CacheHits:        s.CacheHits(),
		DerivedBoundHits: s.BoundHits(),
		Candidates:       s.NumCandidates(),
		EarlyStopped:     s.Stopped(),
		Cancelled:        s.Cancelled(),
		StopGap:          s.StopGap(),
		RefundedBudget:   s.RefundedBudget(),
		WhatIfTime:       used * s.Opt.PerCallTime,
	}
	r.TuningTime = r.WhatIfTime + used*(s.Opt.PerCallTime/otherPerCallDivisor)
	if s.Trace != nil {
		s.Trace.SetPhase(trace.PhaseFinal)
		// The curve is derived-improvement-vs-spend throughout; the final
		// sample must stay in the same units as the mid-run points. The
		// oracle number rides in the summary instead.
		s.Trace.Point(r.WhatIfCalls, 100*s.Derived.Improvement(cfg))
		s.Trace.Oracle(r.ImprovementPct)
	}
	return r
}

// NewOptimizer builds the what-if optimizer for a workload+candidates pair
// with the workload's simulated per-call latency. The optimizer is safe to
// share across concurrent sessions; simulated time is derived from each
// session's own spend, so nothing time-related is bound here.
func NewOptimizer(w *workload.Workload, cands *candgen.Result) *whatif.Optimizer {
	opt := whatif.New(w.DB, cands.Indexes())
	opt.PerCallTime = PerCallLatency(w.Name)
	return opt
}

// PerCallLatency returns the simulated per-what-if-call latency for the
// named workload, calibrated so the x-axis "(tuning time in minutes)"
// labels of Figures 8-21 come out at the paper's magnitudes.
func PerCallLatency(name string) time.Duration {
	switch name {
	case "TPC-DS":
		return 950 * time.Millisecond
	case "Real-D":
		return 2800 * time.Millisecond
	case "Real-M":
		return 2700 * time.Millisecond
	case "JOB":
		return 400 * time.Millisecond
	case "TPC-H":
		return 280 * time.Millisecond
	default:
		return time.Second
	}
}
