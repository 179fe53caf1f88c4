// Package anytime wraps budget-aware enumeration with the anytime property
// DTA provides (Section 1 names supporting it, together with user-specified
// time budgets, as the open integration work for the paper's techniques):
// tuning proceeds in budget slices, the best configuration found so far can
// be retrieved at any moment, and a wall-clock-style time budget is mapped
// to a what-if call budget through the workload's per-call latency.
//
// A minimum-improvement constraint (Bruno & Chaudhuri, Constrained physical
// design tuning, VLDB 2008 — the paper's [18]) is also supported: tuning
// stops early once the requested improvement is reached.
package anytime

import (
	"context"
	"time"

	"indextune/internal/schema"

	"indextune/internal/candgen"
	"indextune/internal/core"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/workload"
)

// Options configure an anytime tuning session.
type Options struct {
	// K is the cardinality constraint (default 10).
	K int
	// TimeBudget is the tuning-time limit; it is converted into a what-if
	// call budget via the workload's simulated per-call latency.
	TimeBudget time.Duration
	// SliceCalls is the number of what-if calls per slice (default:
	// budget/10, at least 20).
	SliceCalls int
	// MinImprovementPct stops tuning once the derived improvement of the
	// current recommendation reaches this percentage (0 disables).
	MinImprovementPct float64
	// StopEpsilon enables Esc-style early stopping inside the slices (see
	// search.Session.StopEpsilon): a stopped slice marks the whole session
	// done and Progress.Reason reports it. 0 disables.
	StopEpsilon float64
	// StorageLimit caps total index bytes; 0 disables.
	StorageLimit int64
	// Seed drives randomized decisions.
	Seed int64
	// Trace, when non-nil, receives the session's budget events plus a slice
	// snapshot after every Step.
	Trace *trace.Recorder
	// Ctx, when non-nil, cancels the session: a cancellation observed at a
	// commit point finishes the session with Progress.Reason "cancelled" and
	// the early-stop refund semantics (see search.Session.CheckCancel).
	Ctx context.Context
}

// Progress reports the state after one slice.
type Progress struct {
	Slice          int
	CallsUsed      int
	Budget         int     // total what-if call budget of the session
	BudgetFraction float64 // CallsUsed / Budget; reaches 1.0 when fully spent
	ImprovementPct float64 // derived improvement of the current best
	Config         iset.Set
	// Reason states why the session finished: "" while running, then one of
	// "early-stop" (the StopEpsilon rule fired), "cancelled" (the context
	// was cancelled), "budget-exhausted", "saturated" (no spendable pairs
	// remain), or "min-improvement".
	Reason string
}

// Session is an anytime tuning session.
type Session struct {
	opts  Options
	s     *search.Session
	cands *candgen.Result
	w     *workload.Workload

	best    iset.Set
	history []Progress
	done    bool
	reason  string
}

// New prepares an anytime session for w.
func New(w *workload.Workload, opts Options) *Session {
	if opts.K <= 0 {
		opts.K = 10
	}
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	budget := int(float64(opts.TimeBudget) / float64(opt.PerCallTime))
	if budget < 1 {
		budget = 1
	}
	if opts.SliceCalls <= 0 {
		opts.SliceCalls = budget / 10
		if opts.SliceCalls < 20 {
			opts.SliceCalls = 20
		}
	}
	s := search.NewSession(w, cands, opt, opts.K, budget, opts.Seed)
	s.StorageLimit = opts.StorageLimit
	s.Trace = opts.Trace
	s.StopEpsilon = opts.StopEpsilon
	s.Ctx = opts.Ctx
	return &Session{opts: opts, s: s, cands: cands, w: w, best: iset.Set{}}
}

// Step runs one tuning slice and returns the progress snapshot. done
// reports whether the session has finished (budget exhausted or the
// minimum-improvement constraint met).
//
// Each slice runs MCTS in the paper's best setting (core.Default) restricted
// to the slice's call allowance; the search tree is rebuilt per slice but
// the what-if cache and derived store persist, so later slices resume from
// everything already learned — the same mechanism that makes cached what-if
// calls free makes slicing cheap.
func (a *Session) Step() (Progress, bool) {
	if a.done {
		return a.snapshot(), true
	}
	// A cancellation that arrived between slices finishes the session before
	// the next slice spends anything; one observed inside a slice is handled
	// by the post-slice switch below.
	if a.s.CheckCancel() && a.s.Cancelled() {
		a.done = true
		a.finish("cancelled")
		return a.snapshot(), true
	}
	sliceBudget := a.opts.SliceCalls
	// Fold a runt remainder into this slice: splitting B into fixed slices
	// leaves B mod SliceCalls calls at the end, and a final sub-slice smaller
	// than the MCTS prior phase wants is spent poorly. Whenever less than two
	// full slices remain, this slice takes everything left, so the last slice
	// never under-spends and progress reaches BudgetFraction 1.0.
	if r := a.s.Remaining(); r < 2*sliceBudget {
		sliceBudget = r
	}
	if sliceBudget <= 0 {
		a.done = true
		a.finish("budget-exhausted")
		return a.snapshot(), true
	}
	// Temporarily narrow the session budget to the slice boundary.
	target := a.s.Used() + sliceBudget
	saved := a.s.Budget
	a.s.Budget = target
	usedBefore := a.s.Used()
	cfg := core.Default().Enumerate(a.s)
	a.s.Budget = saved

	if a.s.Derived.Workload(cfg) < a.s.Derived.Workload(a.best) {
		a.best = cfg.Clone()
	}
	switch {
	case a.s.Cancelled():
		// The context was cancelled inside the slice: the session winds down
		// with the early-stop refund semantics.
		a.done = true
		a.finish("cancelled")
	case a.s.Stopped():
		// The early-stopping rule fired inside the slice: no continuation
		// can improve beyond StopEpsilon, so the whole session is done.
		a.done = true
		a.finish("early-stop")
	case a.s.Exhausted():
		a.done = true
		a.finish("budget-exhausted")
	case a.s.Used() == usedBefore:
		// The slice could not spend any budget: the session's pair space is
		// saturated (every useful pair cached), so no future slice can spend
		// either. Without this the session would loop forever on a budget it
		// can never consume.
		a.done = true
		a.finish("saturated")
	}
	p := a.snapshot()
	a.history = append(a.history, p)
	if a.opts.MinImprovementPct > 0 && p.ImprovementPct >= a.opts.MinImprovementPct {
		a.done = true
		a.finish("min-improvement")
		p.Reason = a.reason
		a.history[len(a.history)-1] = p
	}
	if a.s.Trace != nil {
		a.s.Trace.Slice("anytime", p.Slice, p.ImprovementPct, p.CallsUsed)
		a.s.Trace.Point(p.CallsUsed, p.ImprovementPct)
	}
	return p, a.done
}

// finish records the first done reason; later causes never overwrite it.
func (a *Session) finish(reason string) {
	if a.reason == "" {
		a.reason = reason
	}
}

// IndexesOf resolves any configuration over this session's candidate
// universe to index definitions.
func (a *Session) IndexesOf(cfg iset.Set) []schema.Index {
	var out []schema.Index
	for _, ord := range cfg.Ordinals() {
		out = append(out, a.cands.Candidates[ord].Index)
	}
	return out
}

// History returns the per-slice progress so far.
func (a *Session) History() []Progress { return a.history }

// OracleImprovementPct evaluates the current best against the cost oracle.
func (a *Session) OracleImprovementPct() float64 {
	return 100 * a.s.OracleImprovement(a.best)
}

func (a *Session) snapshot() Progress {
	frac := 0.0
	if a.s.Budget > 0 {
		frac = float64(a.s.Used()) / float64(a.s.Budget)
	}
	return Progress{
		Slice:          len(a.history) + 1,
		CallsUsed:      a.s.Used(),
		Budget:         a.s.Budget,
		BudgetFraction: frac,
		ImprovementPct: 100 * a.s.Derived.Improvement(a.best),
		Config:         a.best.Clone(),
		Reason:         a.reason,
	}
}

// Refine polishes a finished session's recommendation with a final
// derived-cost Best-Greedy pass over everything learned.
func (a *Session) Refine() iset.Set {
	cfg, _ := greedy.DerivedOnly(a.s, a.opts.K)
	if a.s.Derived.Workload(cfg) < a.s.Derived.Workload(a.best) {
		// Clone like Step does: cfg's backing words must not be shared with
		// the set handed back to callers.
		a.best = cfg.Clone()
	}
	return a.best.Clone()
}

// DerivedImprovementPct returns the derived improvement of the current best
// configuration — the same units as the mid-run improvement curve.
func (a *Session) DerivedImprovementPct() float64 {
	return 100 * a.s.Derived.Improvement(a.best)
}

// Stopped reports whether the underlying session was terminated by the
// early-stopping rule.
func (a *Session) Stopped() bool { return a.s.Stopped() }

// Cancelled reports whether the underlying session was terminated by
// context cancellation.
func (a *Session) Cancelled() bool { return a.s.Cancelled() }

// StopGap returns the bound gap at the stop decision (0 unless Stopped).
func (a *Session) StopGap() float64 { return a.s.StopGap() }

// RefundedBudget returns the budget refunded by the early stop (0 unless
// Stopped).
func (a *Session) RefundedBudget() int { return a.s.RefundedBudget() }
