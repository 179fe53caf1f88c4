// Package trace is the observability layer of the tuning stack: a
// per-session event/metrics recorder that makes the budget-allocation
// behaviour of every algorithm visible — where each what-if call went
// (phase, query, configuration), how the cache behaved, and how the
// recommendation improved as the budget was spent.
//
// The paper's contribution is precisely *where the budget goes* (the
// budget-allocation matrix of Section 3), and the follow-up work the
// repository targets next — Wii-style dynamic budget reallocation and
// Esc-style early stopping — consumes exactly these signals: per-step spend
// and improvement-vs-spend curves. The recorder therefore keeps, besides the
// raw event log, monotonic counters (spend by phase, cache hits, derived
// fallbacks, per-query spend) and an improvement curve suitable for plotting
// Figure-7-style anytime behaviour.
//
// A nil *Recorder is a valid, fully disabled recorder: every method no-ops,
// so call sites need no guards for correctness. Hot paths still guard with
// `if rec != nil` where building an event's fields would itself allocate.
//
// The package is intentionally dependency-free (stdlib only): in particular
// it must never import internal/whatif — the recorder observes budget
// accounting, it must not be able to perform cost queries (enforced by the
// indexlint budgetguard analyzer). Configurations are therefore identified
// by their canonical key strings and queries by workload index.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Phase labels where in an algorithm's lifecycle budget is being spent.
type Phase string

// Canonical phases. Algorithms may define finer-grained phases; the spend
// invariant (sum over all phases == budgeted calls) holds regardless.
const (
	// PhasePriors is Algorithm 4's singleton-prior computation (and the
	// analogous per-query first phase of two-phase greedy variants).
	PhasePriors Phase = "priors"
	// PhaseSearch is the main enumeration loop.
	PhaseSearch Phase = "search"
	// PhaseFinal is final-selection work: extraction, refinement, and the
	// oracle evaluation curve point (normally budget-free).
	PhaseFinal Phase = "final"
)

// Kind discriminates trace events.
type Kind string

// Event kinds.
const (
	// KindReserve: one unit of budget was charged for a (query, config) pair.
	KindReserve Kind = "reserve"
	// KindCommit: a charged reservation completed with its evaluated cost.
	KindCommit Kind = "commit"
	// KindCacheHit: the session answered a repeat pair without budget.
	KindCacheHit Kind = "cache-hit"
	// KindDerived: budget exhausted; the derived cost stood in.
	KindDerived Kind = "derived"
	// KindDerivedBound: an unseen pair was answered from monotonicity-derived
	// cost bounds (Wii-style interception) without charging budget; Cost is
	// the midpoint answer and Value the relative bound gap.
	KindDerivedBound Kind = "derived-bound"
	// KindEpisode: one MCTS episode committed (selection path, backup value,
	// and the virtual-loss state under pipelined parallelism).
	KindEpisode Kind = "episode"
	// KindStep: one greedy/bandit/dqn/dta step decision.
	KindStep Kind = "step"
	// KindSlice: one anytime slice boundary snapshot.
	KindSlice Kind = "slice"
	// KindPhase: the current phase changed.
	KindPhase Kind = "phase"
	// KindPoint: an improvement-vs-spend curve sample.
	KindPoint Kind = "point"
	// KindStop: the early-stopping rule terminated the run; Value is the
	// bound gap at the decision and Refunded the budget left uncharged.
	KindStop Kind = "stop"
	// KindCancel: the run was cancelled through its context; Refunded is the
	// budget left uncharged, with the same refund semantics as a stop.
	KindCancel Kind = "cancel"
)

// Event is one JSONL trace record. Fields are pruned per kind via omitempty;
// Query uses -1 (not 0) for "no query" so omitempty never hides query 0.
type Event struct {
	Seq     uint64  `json:"seq"`
	Kind    Kind    `json:"kind"`
	Phase   Phase   `json:"phase,omitempty"`
	Algo    string  `json:"algo,omitempty"`
	Query   int     `json:"q"`
	Config  string  `json:"cfg,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Cached  bool    `json:"cached,omitempty"`
	Derived bool    `json:"derived,omitempty"`
	// Value is the event's payload value: backup reward for episodes,
	// step score for steps, improvement percent for slices and points.
	Value float64 `json:"value,omitempty"`
	// Used is the session's budgeted-call count after the event.
	Used    int `json:"used,omitempty"`
	Episode int `json:"ep,omitempty"`
	Action  int `json:"action,omitempty"`
	// Inflight is the number of pipelined episodes holding virtual loss at
	// the time the event committed (0 in one-slot runs).
	Inflight int `json:"inflight,omitempty"`
	// Refunded is the budget returned unspent by an early stop.
	Refunded int    `json:"refunded,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// CurvePoint is one sample of the improvement-vs-spend curve.
type CurvePoint struct {
	Spend          int     `json:"spend"`
	ImprovementPct float64 `json:"improvement_pct"`
}

// Summary is the aggregate metrics document flushed alongside (or instead
// of) the event log. SpendByPhase sums exactly to TotalSpend, which equals
// the session's budgeted what-if calls (Result.WhatIfCalls) — the invariant
// tested at every worker count.
type Summary struct {
	Algorithm        string         `json:"algorithm,omitempty"`
	Budget           int            `json:"budget,omitempty"`
	TotalSpend       int            `json:"total_spend"`
	SpendByPhase     map[Phase]int  `json:"spend_by_phase"`
	CacheHits        int64          `json:"cache_hits"`
	DerivedFallbacks int64          `json:"derived_fallbacks"`
	DerivedBoundHits int64          `json:"derived_bound_hits,omitempty"`
	Commits          int64          `json:"commits"`
	Slices           int64          `json:"slices,omitempty"`
	Events           uint64         `json:"events"`
	PerQuerySpend    map[string]int `json:"per_query_spend,omitempty"`
	Curve            []CurvePoint   `json:"curve,omitempty"`
	// EarlyStops counts stop decisions (0 or 1 per session), StopGap is the
	// bound gap at the decision, and RefundedBudget the budget returned
	// unspent: Budget − TotalSpend once a stop or cancel is recorded. The
	// spend invariant is unaffected: refunded budget was never charged, so
	// SpendByPhase still sums to TotalSpend.
	EarlyStops     int64   `json:"early_stops,omitempty"`
	StopGap        float64 `json:"stop_gap,omitempty"`
	RefundedBudget int     `json:"refunded_budget,omitempty"`
	// Cancellations counts context-cancellation decisions (0 or 1 per
	// session); the refund, like a stop's, lands in RefundedBudget.
	Cancellations int64 `json:"cancellations,omitempty"`
	// OracleImprovementPct is the final configuration's oracle improvement.
	// The curve stays in derived-improvement units throughout; this is the
	// one place the oracle number appears.
	OracleImprovementPct float64 `json:"oracle_improvement_pct,omitempty"`
	// OracleCache, when set, carries the shared what-if oracle's cross-job
	// cache state at summary time — the multi-tenant view, distinct from the
	// session-local counters above. The service layer (internal/jobs) stamps
	// it via Recorder.OracleCache; plain library runs leave it nil so their
	// summaries stay byte-identical. The recorder observes these numbers, it
	// cannot compute them: this package must never import internal/whatif.
	OracleCache *OracleCacheSummary `json:"oracle_cache,omitempty"`
}

// OracleCacheSummary mirrors the shared oracle's cache statistics into the
// trace document: residency, capacity, the lifetime hit rate across every
// job that ran against the oracle, and the eviction/plan-space counters of
// the bounded mode.
type OracleCacheSummary struct {
	Entries        int64   `json:"entries"`
	ResidentBytes  int64   `json:"resident_bytes"`
	CapacityBytes  int64   `json:"capacity_bytes,omitempty"`
	HitRate        float64 `json:"hit_rate"`
	Evictions      int64   `json:"evictions,omitempty"`
	PlanSpaces     int64   `json:"plan_spaces,omitempty"`
	PlanSpaceBytes int64   `json:"plan_space_bytes,omitempty"`
}

// SpendTotal returns the sum of the per-phase spend counters — by the
// recorder's construction equal to TotalSpend.
func (s Summary) SpendTotal() int {
	t := 0
	for _, v := range s.SpendByPhase {
		t += v
	}
	return t
}

// Recorder collects the events and metrics of one tuning session. A nil
// *Recorder is fully disabled. All methods are safe for concurrent use; the
// tuning stack only calls them from budget-charging critical sections and
// coordinator goroutines, so event order is deterministic for a fixed
// (seed, workers) pair.
type Recorder struct {
	mu    sync.Mutex
	phase Phase  // guarded by: mu
	seq   uint64 // guarded by: mu

	buf  *bufio.Writer // nil when no event stream is attached; guarded by: mu
	line []byte        // appendEvent's reused output; guarded by: mu
	err  error         // first encode or write error; guarded by: mu

	spend    map[Phase]int // guarded by: mu
	perQuery map[int]int   // guarded by: mu
	curve    []CurvePoint  // guarded by: mu

	cacheHits     int64   // guarded by: mu
	derived       int64   // guarded by: mu
	derivedBounds int64   // guarded by: mu
	commits       int64   // guarded by: mu
	slices        int64   // guarded by: mu
	stops         int64   // guarded by: mu
	cancels       int64   // guarded by: mu
	stopGap       float64 // guarded by: mu
	oraclePct     float64 // guarded by: mu

	autoFlush bool // guarded by: mu

	oracleCache *OracleCacheSummary // guarded by: mu
}

// New builds a recorder. events may be nil: the recorder then keeps only
// counters and the improvement curve (summary-only mode).
func New(events io.Writer) *Recorder {
	r := &Recorder{
		phase:    PhaseSearch,
		spend:    make(map[Phase]int),
		perQuery: make(map[int]int),
	}
	if events != nil {
		r.buf = bufio.NewWriter(events)
	}
	return r
}

// emit assigns the sequence number and streams the event as one JSONL line.
// The first error — an unencodable float or a failed write — is kept in
// r.err; nothing of the failing event is written and every later event is
// dropped. Callers hold r.mu.
//
// locked: mu
func (r *Recorder) emit(e Event) {
	r.seq++
	e.Seq = r.seq
	if r.buf == nil || r.err != nil {
		return
	}
	r.line, r.err = appendEvent(r.line[:0], &e)
	if r.err == nil {
		_, r.err = r.buf.Write(r.line)
	}
	if r.autoFlush && r.err == nil {
		r.err = r.buf.Flush()
	}
}

// SetAutoFlush makes the recorder flush the event stream after every event,
// so a live consumer (the tuned daemon's SSE stream) sees events as they
// happen instead of at 4 KiB buffer boundaries. Costs one writer flush per
// event; leave it off for file-backed traces.
func (r *Recorder) SetAutoFlush(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.autoFlush = on
	r.mu.Unlock()
}

// SetPhase switches the phase subsequent budget charges are attributed to.
func (r *Recorder) SetPhase(p Phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if p != r.phase {
		r.phase = p
		r.emit(Event{Kind: KindPhase, Phase: p, Query: -1})
	}
	r.mu.Unlock()
}

// Reserve records one unit of budget charged for (query, cfg); used is the
// session's budgeted-call count after the charge.
func (r *Recorder) Reserve(query int, cfg string, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spend[r.phase]++
	r.perQuery[query]++
	r.emit(Event{Kind: KindReserve, Phase: r.phase, Query: query, Config: cfg, Used: used})
	r.mu.Unlock()
}

// Commit records the completion of a charged reservation with its cost.
func (r *Recorder) Commit(query int, cfg string, cost float64, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.commits++
	r.emit(Event{Kind: KindCommit, Phase: r.phase, Query: query, Config: cfg, Cost: cost, Used: used})
	r.mu.Unlock()
}

// CacheHit records a repeat pair answered without budget.
func (r *Recorder) CacheHit(query int, cfg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cacheHits++
	r.emit(Event{Kind: KindCacheHit, Phase: r.phase, Query: query, Config: cfg, Cached: true})
	r.mu.Unlock()
}

// DerivedFallback records a budget-exhausted request served by the derived
// cost instead of a what-if call.
func (r *Recorder) DerivedFallback(query int, cfg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.derived++
	r.emit(Event{Kind: KindDerived, Phase: r.phase, Query: query, Config: cfg, Derived: true})
	r.mu.Unlock()
}

// DerivedBound records an unseen pair intercepted by monotonicity-derived
// cost bounds and answered without budget: cost is the midpoint answer and
// gap the relative bound width (hi−lo)/hi at interception time. No spend is
// recorded — interception is precisely the act of *not* spending.
func (r *Recorder) DerivedBound(query int, cfg string, cost, gap float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.derivedBounds++
	r.emit(Event{Kind: KindDerivedBound, Phase: r.phase, Query: query, Config: cfg, Cost: cost, Value: gap, Derived: true})
	r.mu.Unlock()
}

// Episode records one committed MCTS episode: the evaluated configuration,
// the backed-up reward, the selection path (as an action-ordinal list in
// detail), and the number of episodes still holding virtual loss.
func (r *Recorder) Episode(algo string, ep int, cfg string, value float64, pathActions string, inflight, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindEpisode, Phase: r.phase, Algo: algo, Query: -1, Config: cfg,
		Value: value, Episode: ep, Inflight: inflight, Used: used, Detail: pathActions})
	r.mu.Unlock()
}

// Step records one discrete algorithm decision (greedy index pick, bandit
// round, DQN round, DTA per-query tuning step).
func (r *Recorder) Step(algo string, action int, value float64, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(Event{Kind: KindStep, Phase: r.phase, Algo: algo, Query: -1, Action: action, Value: value, Used: used})
	r.mu.Unlock()
}

// Slice records an anytime slice boundary snapshot.
func (r *Recorder) Slice(algo string, slice int, improvementPct float64, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slices++
	r.emit(Event{Kind: KindSlice, Phase: r.phase, Algo: algo, Query: -1, Episode: slice, Value: improvementPct, Used: used})
	r.mu.Unlock()
}

// Stop records an early-stopping decision: gap is the bound gap that fell
// below the stopping tolerance, refunded the budget left uncharged, and used
// the session's spend at the decision. No spend is recorded — refunded
// budget is precisely budget that was never charged.
func (r *Recorder) Stop(gap float64, refunded, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stops++
	r.stopGap = gap
	r.emit(Event{Kind: KindStop, Phase: r.phase, Query: -1, Value: gap, Refunded: refunded, Used: used})
	r.mu.Unlock()
}

// Cancel records a context-cancellation decision: refunded is the budget
// left uncharged — with exactly a stop's refund semantics — and used the
// session's spend at the decision. No spend is recorded.
func (r *Recorder) Cancel(refunded, used int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cancels++
	r.emit(Event{Kind: KindCancel, Phase: r.phase, Query: -1, Refunded: refunded, Used: used})
	r.mu.Unlock()
}

// Oracle records the final configuration's oracle improvement (percent) for
// the summary. The improvement-vs-spend curve deliberately never mixes in
// oracle values — mid-run points are derived improvements, and the final
// point stays comparable with them.
func (r *Recorder) Oracle(improvementPct float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.oraclePct = improvementPct
	r.mu.Unlock()
}

// OracleCache records the shared oracle's cache state for the summary. The
// caller computes the numbers (the recorder cannot — see the package
// comment's no-whatif-import rule); a copy is stored so later mutation of
// the argument cannot race the summary snapshot.
func (r *Recorder) OracleCache(s OracleCacheSummary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := s
	r.oracleCache = &c
	r.mu.Unlock()
}

// Point appends an improvement-vs-spend curve sample (and its event).
func (r *Recorder) Point(spend int, improvementPct float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	// The curve is monotone in spend; a repeated spend value replaces the
	// previous sample so the curve stays a function of spend.
	if n := len(r.curve); n > 0 && r.curve[n-1].Spend == spend {
		if improvementPct > r.curve[n-1].ImprovementPct {
			r.curve[n-1].ImprovementPct = improvementPct
		}
	} else {
		r.curve = append(r.curve, CurvePoint{Spend: spend, ImprovementPct: improvementPct})
	}
	r.emit(Event{Kind: KindPoint, Phase: r.phase, Query: -1, Used: spend, Value: improvementPct})
	r.mu.Unlock()
}

// Flush drains the buffered event stream and returns the first event-stream
// write error, if any.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf != nil {
		if err := r.buf.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Summary snapshots the aggregate metrics. algorithm and budget annotate the
// document, and budget also yields the refund of a stopped or cancelled
// run; pass zero values when unknown.
func (r *Recorder) Summary(algorithm string, budget int) Summary {
	if r == nil {
		return Summary{Algorithm: algorithm, Budget: budget, SpendByPhase: map[Phase]int{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		Algorithm:            algorithm,
		Budget:               budget,
		SpendByPhase:         make(map[Phase]int, len(r.spend)),
		CacheHits:            r.cacheHits,
		DerivedFallbacks:     r.derived,
		DerivedBoundHits:     r.derivedBounds,
		Commits:              r.commits,
		Slices:               r.slices,
		Events:               r.seq,
		EarlyStops:           r.stops,
		Cancellations:        r.cancels,
		StopGap:              r.stopGap,
		OracleImprovementPct: r.oraclePct,
		Curve:                append([]CurvePoint(nil), r.curve...),
	}
	if r.oracleCache != nil {
		c := *r.oracleCache
		s.OracleCache = &c
	}
	for p, n := range r.spend {
		s.SpendByPhase[p] = n
		s.TotalSpend += n
	}
	if r.stops+r.cancels > 0 {
		// The refund is whatever the run never charged. An event's own
		// refund is measured against the session's budget at the decision,
		// which a caller may have narrowed (anytime slices).
		s.RefundedBudget = max(budget-s.TotalSpend, 0)
	}
	if len(r.perQuery) > 0 {
		s.PerQuerySpend = make(map[string]int, len(r.perQuery))
		for q, n := range r.perQuery {
			s.PerQuerySpend[strconv.Itoa(q)] = n
		}
	}
	return s
}

// WriteSummary writes s as indented JSON.
func WriteSummary(w io.Writer, s Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
