// Package indextune is a budget-aware index tuner: it reproduces
// "Budget-aware Index Tuning with Reinforcement Learning" (Wu et al.,
// SIGMOD 2022) as a self-contained Go library.
//
// The tuner searches for the index configuration that minimizes the
// optimizer-estimated (what-if) cost of a SQL workload, under a cardinality
// constraint K and a budget B on the number of what-if optimizer calls. The
// headline algorithm is Monte Carlo tree search over the configuration MDP
// (AlgorithmMCTS); budget-aware greedy variants, the DBA-bandits and No-DBA
// RL baselines, and a DTA-style anytime tuner are included for comparison.
//
// # Quick start
//
//	w := indextune.Workload("tpch")
//	res, err := indextune.Tune(w, indextune.Options{K: 10, Budget: 500})
//	if err != nil { ... }
//	fmt.Printf("improvement: %.1f%%\n", res.ImprovementPct)
//	for _, ix := range res.Indexes {
//		fmt.Println(ix)
//	}
//
// Custom workloads can be built from SQL text against a user-defined schema
// (see ParseQuery and the examples/customworkload program), or constructed
// directly with the workload builder.
package indextune

import (
	"context"
	"fmt"
	"io"
	"time"

	"indextune/internal/algo"
	"indextune/internal/candgen"
	"indextune/internal/core"
	"indextune/internal/dta"
	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/search"
	"indextune/internal/sqlparse"
	"indextune/internal/stats"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// Re-exported core types. These aliases form the public surface of the
// library; the implementations live in internal packages.
type (
	// Database is a relational schema with per-table statistics.
	Database = schema.Database
	// Table is one base table.
	Table = schema.Table
	// Column is one table column with statistics.
	Column = schema.Column
	// Index is a (candidate or recommended) covering index.
	Index = schema.Index
	// WorkloadSet is a named set of queries over a database.
	WorkloadSet = workload.Workload
	// Query is the logical representation of one SQL statement.
	Query = workload.Query
	// QueryBuilder assembles queries programmatically.
	QueryBuilder = workload.Builder
	// SynthSpec parameterizes the synthetic workload generator.
	SynthSpec = workload.SynthSpec
	// Plan is the optimizer's structured plan for one query.
	Plan = whatif.Plan
	// Histogram is an equi-depth column histogram for selectivity
	// estimation (see ParseQueryWithStats).
	Histogram = stats.Histogram
	// StatsCatalog maps table.column names to histograms.
	StatsCatalog = stats.Catalog
	// TraceSummary aggregates a run's budget-accounting metrics: spend by
	// phase (summing exactly to Result.WhatIfCalls), cache behaviour,
	// per-query spend, and the improvement-vs-spend curve.
	TraceSummary = trace.Summary
	// TraceEvent is one record of the JSONL trace event stream.
	TraceEvent = trace.Event
	// TraceCurvePoint is one improvement-vs-spend curve sample.
	TraceCurvePoint = trace.CurvePoint
)

// WriteTraceSummary writes a TraceSummary as indented JSON.
func WriteTraceSummary(w io.Writer, s TraceSummary) error { return trace.WriteSummary(w, s) }

// Re-exported constructors.
var (
	// NewDatabase creates an empty schema.
	NewDatabase = schema.NewDatabase
	// NewTable creates a table with statistics.
	NewTable = schema.NewTable
	// NewQuery starts a query builder with the given id.
	NewQuery = workload.NewBuilder
	// Synthesize generates a synthetic workload from a spec; it reports an
	// error when the spec's table/query/row/payload bounds are invalid.
	Synthesize = workload.Synthesize
)

// Algorithm names accepted by Options.Algorithm (registered in
// internal/algo, the registry shared with the tuned daemon's job layer).
const (
	AlgorithmMCTS      = algo.NameMCTS      // the paper's contribution (default)
	AlgorithmVanilla   = algo.NameVanilla   // one-phase greedy, FCFS budget
	AlgorithmTwoPhase  = algo.NameTwoPhase  // Algorithm 2, FCFS budget
	AlgorithmAutoAdmin = algo.NameAutoAdmin // two-phase, atomic configurations only
	AlgorithmBandit    = algo.NameBandit    // DBA bandits baseline
	AlgorithmNoDBA     = algo.NameNoDBA     // deep Q-learning baseline
	AlgorithmDP        = algo.NameDP        // exact solver for tiny candidate universes
)

// Algorithms lists the accepted Options.Algorithm values.
func Algorithms() []string { return algo.Names() }

// Workload returns a built-in workload by name ("tpch", "tpcds", "job",
// "real-d", "real-m"; display names like "TPC-H" also work), or nil for an
// unknown name.
func Workload(name string) *WorkloadSet {
	return workload.ByName(name)
}

// Workloads lists the built-in workload names.
func Workloads() []string { return workload.Names() }

// ParseQuery parses a SQL SELECT statement against db into a Query usable in
// a WorkloadSet. The supported subset covers projections (with aggregates),
// FROM lists with aliases and INNER JOIN ... ON, WHERE conjunctions of
// equality/range/join predicates, and GROUP BY / ORDER BY.
func ParseQuery(db *Database, id, sql string) (*Query, error) {
	return sqlparse.Parse(db, id, sql, nil)
}

// ParseQueryWithStats parses like ParseQuery but estimates predicate
// selectivities from the catalog's per-column histograms when the predicate
// carries a numeric literal.
func ParseQueryWithStats(db *Database, id, sql string, cat *StatsCatalog) (*Query, error) {
	return sqlparse.Parse(db, id, sql, cat)
}

// RenderSQL renders a logical query back to SQL text (placeholder
// literals); the result re-parses to the same query template.
func RenderSQL(q *Query) string { return workload.RenderSQL(q) }

// Options configure a tuning run.
type Options struct {
	// K is the cardinality constraint: at most K indexes are recommended.
	// Default 10.
	K int
	// Budget bounds the number of what-if optimizer calls. Default 1000.
	Budget int
	// Algorithm selects the enumeration algorithm (see Algorithms).
	// Default AlgorithmMCTS.
	Algorithm string
	// Seed drives all randomized decisions. Runs with equal seeds are
	// reproducible. Default 1.
	Seed int64
	// StorageLimitBytes caps the total size of the recommended indexes;
	// 0 disables the storage constraint.
	StorageLimitBytes int64
	// SessionWorkers sets intra-session search parallelism for algorithms
	// that support it (currently MCTS): up to N episodes evaluate their
	// what-if calls concurrently. 0 or 1 keeps one episode in flight,
	// evaluated inline. Results are reproducible for a fixed (Seed,
	// SessionWorkers) pair, but N > 1 follows a different (equally valid)
	// search trajectory than N = 1.
	SessionWorkers int
	// DeriveEpsilon enables Wii-style what-if call interception: an unseen
	// (query, configuration) pair whose monotonicity-derived cost bounds are
	// within this relative tolerance is answered from the bound midpoint
	// without consuming budget, stretching the same budget into more search.
	// 0 (the default) disables interception and keeps results bit-identical
	// to earlier releases; DefaultDeriveEpsilon is the tolerance the
	// command-line tools enable by default.
	DeriveEpsilon float64
	// StopEpsilon enables Esc-style early stopping: at enumerator commit
	// points the session bounds the best possible remaining improvement from
	// monotonicity-derived cost floors, and when that bound gap falls at or
	// below ε the run terminates and refunds its unspent budget
	// (Result.RefundedBudget), so WhatIfCalls reflects the calls actually
	// needed. 0 (the default) disables the checker and keeps results
	// bit-identical to earlier releases at any SessionWorkers count;
	// DefaultStopEpsilon is the tolerance the command-line tools enable by
	// default.
	StopEpsilon float64
	// MCTS overrides the MCTS policies; nil uses the paper's best setting
	// (ε-greedy with priors, myopic step-0 rollout, Best-Greedy extraction).
	MCTS *MCTSOptions
	// TraceEvents, when non-nil, receives the run's trace event stream as
	// JSONL and enables trace collection (Result.Trace). Tracing adds one
	// event per budget action; with TraceEvents nil and CollectTrace false
	// the hot paths skip all trace work.
	TraceEvents io.Writer
	// CollectTrace enables summary-only tracing (Result.Trace populated,
	// counters and curve but no event stream) without a TraceEvents writer.
	CollectTrace bool
	// CacheBytes bounds the what-if optimizer's cost cache to roughly this
	// many resident bytes via CLOCK (second-chance) eviction; plan-space
	// interning shares the bound. 0 (the default) keeps the cache unbounded.
	// Eviction only ever causes recomputation — results stay bit-identical
	// to an unbounded run at any SessionWorkers count; the bound trades CPU
	// for memory, never accuracy or budget accounting.
	CacheBytes int64
	// Context, when non-nil, cancels a running Tune call: the cancellation
	// is observed at the same enumerator commit points as the StopEpsilon
	// rule, the session refunds its unspent budget exactly like an early
	// stop (WhatIfCalls + RefundedBudget == Budget), and Tune returns the
	// partial Result assembled from everything learned, with the Cancelled
	// flag set. A nil or never-cancelled context (including
	// context.Background) leaves results bit-identical to earlier releases
	// at any SessionWorkers count.
	Context context.Context
}

// MCTSOptions expose the Section 6 policy choices plus the extensions the
// paper discusses (Boltzmann exploration, RAVE).
type MCTSOptions struct {
	// Policy: "prior" (default, the paper's ε-greedy variant with singleton
	// priors), "uct", "boltzmann", or "uniform".
	Policy string
	// Temperature is the Boltzmann τ (default 0.1).
	Temperature float64
	// RAVE blends rapid-action-value (all-moves-as-first) estimates into
	// the action values (the Section 8 extension).
	RAVE bool
	// RandomizedRollout uses the randomized look-ahead step size instead of
	// the myopic fixed step.
	RandomizedRollout bool
	// FixedStep is the look-ahead step for the myopic rollout (default 0).
	FixedStep int
	// Extraction: "bg" (default), "bce", or "hybrid".
	Extraction string
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Budget <= 0 {
		o.Budget = 1000
	}
	if o.Algorithm == "" {
		o.Algorithm = AlgorithmMCTS
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DefaultDeriveEpsilon is the relative bound-gap tolerance the command-line
// tools pass as Options.DeriveEpsilon by default. The library default is 0
// (interception off).
const DefaultDeriveEpsilon = search.DefaultDeriveEpsilon

// DefaultStopEpsilon is the early-stopping tolerance the command-line tools
// pass as Options.StopEpsilon by default. The library default is 0 (early
// stopping off).
const DefaultStopEpsilon = search.DefaultStopEpsilon

// Result is the outcome of a tuning run.
type Result struct {
	// Indexes is the recommended configuration (at most K indexes).
	Indexes []Index
	// ImprovementPct is the workload's percentage improvement in what-if
	// cost under the recommended configuration (Equation 4 of the paper).
	ImprovementPct float64
	// WhatIfCalls is the number of budgeted what-if calls consumed.
	WhatIfCalls int
	// CacheHits is the number of this run's what-if requests answered from
	// the what-if cache without consuming budget.
	CacheHits int64
	// DerivedBoundHits is the number of what-if requests answered from
	// monotonicity-derived cost bounds without consuming budget. Always 0
	// when Options.DeriveEpsilon is 0.
	DerivedBoundHits int64
	// Candidates is the size of the candidate-index universe searched.
	Candidates int
	// Algorithm is the display name of the algorithm that ran.
	Algorithm string
	// TuningTime and WhatIfTime are simulated durations derived from the
	// what-if spend.
	TuningTime, WhatIfTime time.Duration
	// StorageBytes is the total estimated size of the recommended indexes.
	StorageBytes int64
	// EarlyStopped reports whether the run was terminated by the
	// Options.StopEpsilon rule rather than running its budget out.
	EarlyStopped bool
	// Cancelled reports whether the run was terminated by Options.Context
	// cancellation; Indexes is then the partial recommendation assembled
	// from everything learned before the cancel, and RefundedBudget carries
	// the unspent budget (WhatIfCalls + RefundedBudget == Options.Budget).
	Cancelled bool
	// StopGap is the bound gap — the best possible remaining improvement as
	// a fraction of the baseline workload cost — at the stop decision
	// (0 unless EarlyStopped).
	StopGap float64
	// RefundedBudget is the budget left uncharged by the early stop:
	// WhatIfCalls + RefundedBudget == Options.Budget for early-stopped runs.
	RefundedBudget int
	// Trace holds the run's aggregate trace metrics when tracing was enabled
	// (Options.TraceEvents or Options.CollectTrace); nil otherwise. Its
	// per-phase spend sums exactly to WhatIfCalls.
	Trace *TraceSummary
}

// Tune searches for the best index configuration for w under opts.
func Tune(w *WorkloadSet, opts Options) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("indextune: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	opts = opts.withDefaults()
	alg, err := algorithmByName(opts)
	if err != nil {
		return nil, err
	}
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	if opts.CacheBytes > 0 {
		opt.SetCacheBytes(opts.CacheBytes)
	}
	s := search.NewSession(w, cands, opt, opts.K, opts.Budget, opts.Seed)
	s.StorageLimit = opts.StorageLimitBytes
	s.Workers = opts.SessionWorkers
	s.DeriveEpsilon = opts.DeriveEpsilon
	s.StopEpsilon = opts.StopEpsilon
	s.Ctx = opts.Context
	var rec *trace.Recorder
	if opts.TraceEvents != nil || opts.CollectTrace {
		rec = trace.New(opts.TraceEvents)
		s.Trace = rec
	}
	r := search.Run(alg, s)
	res := &Result{
		Indexes:          cands.IndexesOf(r.Config),
		ImprovementPct:   r.ImprovementPct,
		WhatIfCalls:      r.WhatIfCalls,
		CacheHits:        r.CacheHits,
		DerivedBoundHits: r.DerivedBoundHits,
		Candidates:       r.Candidates,
		Algorithm:        r.Algorithm,
		TuningTime:       r.TuningTime,
		WhatIfTime:       r.WhatIfTime,
		StorageBytes:     s.ConfigSizeBytes(r.Config),
		EarlyStopped:     r.EarlyStopped,
		Cancelled:        r.Cancelled,
		StopGap:          r.StopGap,
		RefundedBudget:   r.RefundedBudget,
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, fmt.Errorf("indextune: writing trace events: %w", err)
		}
		sum := rec.Summary(r.Algorithm, opts.Budget)
		res.Trace = &sum
	}
	return res, nil
}

// TuneDTA runs the DTA-style anytime tuner, which takes a tuning-time
// budget rather than a what-if call budget.
func TuneDTA(w *WorkloadSet, timeBudget time.Duration, k int, storageLimit int64, seed int64) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("indextune: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	if k <= 0 {
		k = 10
	}
	res := dta.Tune(w, dta.Options{TimeBudget: timeBudget, K: k, StorageLimit: storageLimit, Seed: seed})
	return &Result{
		Indexes:        res.Indexes,
		ImprovementPct: res.ImprovementPct,
		WhatIfCalls:    res.WhatIfCalls,
		Candidates:     res.Candidates,
		Algorithm:      "DTA",
	}, nil
}

// GenerateCandidates exposes candidate index generation (Figure 3): the
// union of per-query candidates, including workload-level wide candidates.
func GenerateCandidates(w *WorkloadSet) ([]Index, error) {
	if w == nil {
		return nil, fmt.Errorf("indextune: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	return candgen.Generate(w, candgen.Options{}).Indexes(), nil
}

// ExplainQuery renders the optimizer's plan summary for one query of the
// workload under the given configuration of indexes.
func ExplainQuery(w *WorkloadSet, q *Query, indexes []Index) string {
	opt := whatif.New(w.DB, indexes)
	full := iset.NewSet(len(indexes))
	for i := range indexes {
		full.Add(i)
	}
	return opt.Explain(q, full)
}

func algorithmByName(opts Options) (search.Algorithm, error) {
	var mo *core.Options
	if opts.Algorithm == AlgorithmMCTS && opts.MCTS != nil {
		m, err := coreMCTSOptions(opts.MCTS)
		if err != nil {
			return nil, err
		}
		mo = &m
	}
	a, err := algo.ByName(opts.Algorithm, mo)
	if err != nil {
		return nil, fmt.Errorf("indextune: %w", err)
	}
	return a, nil
}

// coreMCTSOptions translates the public MCTSOptions into the core package's
// option set, validating the policy and extraction names.
func coreMCTSOptions(m *MCTSOptions) (core.Options, error) {
	mo := core.Options{
		FixedStep:   m.FixedStep,
		Temperature: m.Temperature,
		RAVE:        m.RAVE,
	}
	switch m.Policy {
	case "", "prior":
		mo.Policy = core.PolicyPrior
	case "uct":
		mo.Policy = core.PolicyUCT
	case "boltzmann":
		mo.Policy = core.PolicyBoltzmann
	case "uniform":
		mo.Policy = core.PolicyUniform
	default:
		return mo, fmt.Errorf("indextune: unknown MCTS policy %q (want prior, uct, boltzmann, or uniform)", m.Policy)
	}
	if m.RandomizedRollout {
		mo.Rollout = core.RolloutRandomStep
	} else {
		mo.Rollout = core.RolloutFixedStep
	}
	switch m.Extraction {
	case "", "bg":
		mo.Extraction = core.ExtractBG
	case "bce":
		mo.Extraction = core.ExtractBCE
	case "hybrid":
		mo.Extraction = core.ExtractHybrid
	default:
		return mo, fmt.Errorf("indextune: unknown extraction %q (want bg, bce, or hybrid)", m.Extraction)
	}
	return mo, nil
}
