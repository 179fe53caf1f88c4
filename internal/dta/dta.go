// Package dta simulates Microsoft's Database Tuning Advisor as described in
// Section 7.3 of the paper: an anytime, time-sliced tuner that takes a
// tuning-time budget (not a what-if call budget), consumes queries from a
// cost-based priority queue in batches, supports a storage constraint
// (default 3× the database size) with index merging, and bases its running
// recommendation on the queries tuned so far.
//
// The simulator deliberately reproduces DTA's observable failure mode from
// the paper: when a time slice lands on a costly query whose tuning does not
// finish within the remaining budget, that query contributes no indexes —
// which is what produces DTA's occasional 0% points and non-monotonic
// behaviour as the budget grows.
package dta

import (
	"math/rand"
	"sort"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/greedy"
	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/search"
	"indextune/internal/workload"
)

// Options configure a DTA run.
type Options struct {
	// TimeBudget is the tuning-time limit, as DTA accepts (the experiments
	// give DTA the same virtual tuning time the MCTS run spent).
	TimeBudget time.Duration
	// K is the cardinality constraint.
	K int
	// StorageLimit caps total index bytes; 0 disables the constraint.
	StorageLimit int64
	// Seed randomizes tie-breaking in the query priority queue.
	Seed int64
}

// slices is the number of time slices a run divides its budget into.
const slices = 8

// Result is the outcome of a DTA run.
type Result struct {
	Config iset.Set
	// Indexes are the recommended indexes, Config's members in ordinal
	// order.
	Indexes        []schema.Index
	ImprovementPct float64
	WhatIfCalls    int
	QueriesTuned   int
	// Candidates is the size of the candidate universe, merged indexes
	// included.
	Candidates int
}

// Tune runs the DTA simulator on w. DTA builds its own candidate set
// (including merged indexes) and internally converts the time budget into a
// what-if call allowance using the workload's per-call latency.
func Tune(w *workload.Workload, opts Options) Result {
	cands := candgen.Generate(w, candgen.Options{})
	cands = WithMergedCandidates(w, cands)
	opt := search.NewOptimizer(w, cands)

	perCall := opt.PerCallTime
	// Non-what-if work inflates each call's charged time (Figure 2's split).
	calls := int(float64(opts.TimeBudget) / (float64(perCall) * search.TuningTimeFactor()))
	if calls < 1 {
		calls = 1
	}
	s := search.NewSession(w, cands, opt, opts.K, calls, opts.Seed)
	s.StorageLimit = opts.StorageLimit

	rng := rand.New(rand.NewSource(opts.Seed))
	order := priorityOrder(s, rng)

	sliceQuota := calls / slices
	if sliceQuota < 1 {
		sliceQuota = 1
	}
	batch := (len(order) + slices - 1) / slices
	if batch < 1 {
		batch = 1
	}

	var union []int
	seen := make(map[int]bool)
	tuned := 0

	for qpos := 0; qpos < len(order) && !s.Exhausted(); {
		sliceStart := s.Used()
		sliceEnd := qpos + batch
		for qpos < len(order) && qpos < sliceEnd && s.Used()-sliceStart < sliceQuota {
			qi := order[qpos]
			qpos++
			before := s.Used()
			per, _ := greedy.Search(s, []int{qi}, s.Relevant(qi), iset.Set{}, opts.K, greedy.EvalWhatIf)
			if s.Exhausted() && s.Used() > before {
				// Ran out of time mid-query: DTA discards the partial result
				// for this query (the paper's "stuck on a costly query").
				break
			}
			tuned++
			for _, ord := range per.Ordinals() {
				if !seen[ord] {
					seen[ord] = true
					union = append(union, ord)
				}
			}
		}
	}

	// Final recommendation: Algorithm-1 greedy over the union, derived
	// costs only, under the storage constraint (anytime recommendation).
	rec := iset.Set{}
	if len(union) > 0 {
		rec, _ = greedy.Search(s, allQueries(s), union, iset.Set{}, opts.K, greedy.EvalDerived)
	}
	return Result{
		Config:         rec,
		Indexes:        cands.IndexesOf(rec),
		ImprovementPct: 100 * s.OracleImprovement(rec),
		WhatIfCalls:    s.Used(),
		QueriesTuned:   tuned,
		Candidates:     len(cands.Candidates),
	}
}

// priorityOrder returns query indices ordered by descending baseline cost
// with seed-dependent jitter (DTA's internal cost-based priority queue).
func priorityOrder(s *search.Session, rng *rand.Rand) []int {
	type qc struct {
		qi   int
		cost float64
	}
	qs := make([]qc, len(s.W.Queries))
	for qi := range s.W.Queries {
		jitter := 0.8 + 0.4*rng.Float64()
		qs[qi] = qc{qi: qi, cost: s.Derived.Base(qi) * jitter}
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].cost > qs[j].cost })
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = q.qi
	}
	return out
}

func allQueries(s *search.Session) []int {
	out := make([]int, len(s.W.Queries))
	for i := range out {
		out[i] = i
	}
	return out
}

// WithMergedCandidates extends a candidate set with DTA-style merged
// indexes: for each table, candidates sharing a leading key column are
// merged pairwise into an index with the longer key and the union of stored
// columns, trading seek precision for storage (Chaudhuri & Narasayya, Index
// Merging, ICDE 1999). Merged candidates participate in enumeration like any
// other; under a storage constraint they let DTA keep coverage with fewer
// bytes.
func WithMergedCandidates(w *workload.Workload, r *candgen.Result) *candgen.Result {
	byTableLead := make(map[string][]int)
	for i := range r.Candidates {
		ix := r.Candidates[i].Index
		key := ix.Table + "|" + ix.Key[0]
		byTableLead[key] = append(byTableLead[key], i)
	}
	ids := make(map[string]bool, len(r.Candidates))
	for i := range r.Candidates {
		ids[r.Candidates[i].Index.ID()] = true
	}
	const mergeCap = 64
	merged := 0
	var keys []string
	for k := range byTableLead {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		group := byTableLead[k]
		for a := 0; a < len(group) && merged < mergeCap; a++ {
			for b := a + 1; b < len(group) && merged < mergeCap; b++ {
				ca, cb := &r.Candidates[group[a]], &r.Candidates[group[b]]
				mi, ok := mergeIndexes(ca.Index, cb.Index)
				if !ok || ids[mi.ID()] {
					continue
				}
				ids[mi.ID()] = true
				merged++
				ord := len(r.Candidates)
				qs := unionInts(ca.Queries, cb.Queries)
				r.Candidates = append(r.Candidates, candgen.Candidate{
					Index: mi, Ordinal: ord, TableRows: ca.TableRows, Queries: qs,
				})
				for _, qi := range qs {
					r.PerQuery[qi] = append(r.PerQuery[qi], ord)
				}
			}
		}
	}
	return r
}

// mergeIndexes merges two indexes on the same table with the same leading
// key column: the longer key wins, includes are unioned.
func mergeIndexes(a, b schema.Index) (schema.Index, bool) {
	if a.Table != b.Table || a.Key[0] != b.Key[0] {
		return schema.Index{}, false
	}
	key := a.Key
	if len(b.Key) > len(key) {
		key = b.Key
	}
	cols := make(map[string]bool)
	for _, c := range append(append([]string{}, a.Columns()...), b.Columns()...) {
		cols[c] = true
	}
	var include []string
	for c := range cols {
		inKey := false
		for _, kc := range key {
			if kc == c {
				inKey = true
				break
			}
		}
		if !inKey {
			include = append(include, c)
		}
	}
	sort.Strings(include)
	return schema.Index{Table: a.Table, Key: key, Include: include}, true
}

func unionInts(a, b []int) []int {
	m := make(map[int]bool, len(a)+len(b))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		m[x] = true
	}
	out := make([]int, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}
