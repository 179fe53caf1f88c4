// Package candgen implements candidate index generation, the first stage of
// the index tuning architecture (Figure 1 of the paper): for each query it
// extracts indexable columns (equality, range, join, group/order) and emits
// covering candidate indexes (Figure 3); the workload's candidate set is the
// union over its queries. It also identifies the atomic configurations used
// by the AutoAdmin greedy variant (Section 4.2.2). Which candidates can affect
// a query is not decided here: the what-if optimizer owns that criterion, and
// search.Session.Relevant serves it per query.
package candgen

import (
	"sort"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// Candidate is a candidate index plus the provenance the budget-allocation
// policies need: the size of its table and the queries it was generated for.
type Candidate struct {
	Index     schema.Index
	Ordinal   int   // position in the workload-level universe
	TableRows int64 // rows of the indexed table (index-selection policy §6.1)
	Queries   []int // indices into the workload's query list, ascending
}

// Result is the output of candidate generation for a workload.
type Result struct {
	Candidates []Candidate
	// PerQuery[qi] lists candidate ordinals generated for query qi. The
	// candidates relevant to qi, generated for it or for other queries, are
	// search.Session.Relevant(qi).
	PerQuery [][]int
	// AtomicPairs lists pairs of candidate ordinals that form single-join
	// atomic configurations (indexes on the two sides of one join predicate
	// of one query).
	AtomicPairs [][2]int
}

// Indexes returns the bare candidate index definitions in ordinal order, the
// form the what-if optimizer consumes.
func (r *Result) Indexes() []schema.Index {
	out := make([]schema.Index, len(r.Candidates))
	for i, c := range r.Candidates {
		out[i] = c.Index
	}
	return out
}

// IndexesOf returns the index definitions of cfg's members in ordinal
// order.
func (r *Result) IndexesOf(cfg iset.Set) []schema.Index {
	ords := cfg.Ordinals()
	out := make([]schema.Index, 0, len(ords))
	for _, o := range ords {
		out = append(out, r.Candidates[o].Index)
	}
	return out
}

// Options tune candidate generation.
type Options struct {
	// MaxPerRef caps how many candidates a single table reference emits
	// (default 8).
	MaxPerRef int
	// MaxIncludeCols caps the number of include columns per candidate
	// (default 12).
	MaxIncludeCols int
}

func (o Options) withDefaults() Options {
	if o.MaxPerRef <= 0 {
		o.MaxPerRef = 8
	}
	if o.MaxIncludeCols <= 0 {
		o.MaxIncludeCols = 12
	}
	return o
}

// Generate produces the candidate set for w.
func Generate(w *workload.Workload, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{PerQuery: make([][]int, len(w.Queries))}
	byID := make(map[string]int)
	var ids []string // ids[ord] is candidate ord's Index.ID(), pre-sort ordinals
	type joinSide struct {
		q, ref int
		col    string
	}
	// For atomic pairs: candidate ordinals keyed by (query, ref, join col).
	joinIndexOf := make(map[joinSide]int)

	addCand := func(qi int, ix schema.Index) int {
		id := ix.ID()
		ord, ok := byID[id]
		if !ok {
			ord = len(res.Candidates)
			byID[id] = ord
			ids = append(ids, id)
			rows := int64(0)
			if t := w.DB.Table(ix.Table); t != nil {
				rows = t.Rows
			}
			res.Candidates = append(res.Candidates, Candidate{Index: ix, Ordinal: ord, TableRows: rows})
		}
		c := &res.Candidates[ord]
		if len(c.Queries) == 0 || c.Queries[len(c.Queries)-1] != qi {
			c.Queries = append(c.Queries, qi)
		}
		if !containsInt(res.PerQuery[qi], ord) {
			res.PerQuery[qi] = append(res.PerQuery[qi], ord)
		}
		return ord
	}

	for qi, q := range w.Queries {
		for ri := range q.Refs {
			r := &q.Refs[ri]
			emitted := 0
			for _, ix := range refCandidates(r, opts) {
				if emitted >= opts.MaxPerRef {
					break
				}
				ord := addCand(qi, ix)
				emitted++
				// Remember join-leading candidates for atomic pairs.
				if len(ix.Key) > 0 && containsStr(r.JoinCols, ix.Key[0]) {
					key := joinSide{q: qi, ref: ri, col: ix.Key[0]}
					if _, seen := joinIndexOf[key]; !seen {
						joinIndexOf[key] = ord
					}
				}
			}
		}
		for _, j := range q.Joins {
			l, lok := joinIndexOf[joinSide{q: qi, ref: j.LeftRef, col: j.LeftCol}]
			r, rok := joinIndexOf[joinSide{q: qi, ref: j.RightRef, col: j.RightCol}]
			if lok && rok && l != r {
				if l > r {
					l, r = r, l
				}
				res.AtomicPairs = append(res.AtomicPairs, [2]int{l, r})
			}
		}
	}
	res.AtomicPairs = dedupePairs(res.AtomicPairs)
	addWorkloadCandidates(w, res, opts, addCand)
	res.reorderByFanOut(ids)
	return res
}

// reorderByFanOut sorts the candidate universe by descending query fan-out,
// breaking ties lexicographically by index ID (ids, indexed by the current
// ordinals), and remaps every ordinal reference. Tuners order candidates
// deterministically after workload analysis; this is the order FCFS budget
// allocation consumes.
func (r *Result) reorderByFanOut(ids []string) {
	n := len(r.Candidates)
	perm := make([]int, n) // perm[newOrd] = oldOrd
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		fa, fb := len(r.Candidates[perm[a]].Queries), len(r.Candidates[perm[b]].Queries)
		if fa != fb {
			return fa > fb
		}
		return ids[perm[a]] < ids[perm[b]]
	})
	inv := make([]int, n) // inv[oldOrd] = newOrd
	for newOrd, oldOrd := range perm {
		inv[oldOrd] = newOrd
	}
	newCands := make([]Candidate, n)
	for newOrd, oldOrd := range perm {
		c := r.Candidates[oldOrd]
		c.Ordinal = newOrd
		newCands[newOrd] = c
	}
	r.Candidates = newCands
	for qi := range r.PerQuery {
		for i, o := range r.PerQuery[qi] {
			r.PerQuery[qi][i] = inv[o]
		}
	}
	for i := range r.AtomicPairs {
		a, b := inv[r.AtomicPairs[i][0]], inv[r.AtomicPairs[i][1]]
		if a > b {
			a, b = b, a
		}
		r.AtomicPairs[i] = [2]int{a, b}
	}
}

// addWorkloadCandidates emits workload-level "wide" candidates: for each
// table and each frequently used lead column (join or filter), an index
// including the table's most demanded columns across the whole workload.
// These merged candidates let a single index serve many queries — the effect
// index merging achieves in AutoAdmin/DTA — and are what makes small
// cardinality constraints (K = 5..20) meaningful on many-query workloads.
func addWorkloadCandidates(w *workload.Workload, res *Result, opts Options, addCand func(int, schema.Index) int) {
	type tstat struct {
		leadCount map[string]int // join/filter column usage
		colCount  map[string]int // needed-column demand
		queries   map[int]bool   // queries touching the table
	}
	stats := make(map[string]*tstat)
	get := func(t string) *tstat {
		st := stats[t]
		if st == nil {
			st = &tstat{leadCount: map[string]int{}, colCount: map[string]int{}, queries: map[int]bool{}}
			stats[t] = st
		}
		return st
	}
	for qi, q := range w.Queries {
		for ri := range q.Refs {
			r := &q.Refs[ri]
			st := get(r.Table)
			st.queries[qi] = true
			for _, c := range r.JoinCols {
				st.leadCount[c] += 2 // join columns weigh more as leads
			}
			for _, p := range r.Filters {
				st.leadCount[p.Column]++
			}
			for _, c := range r.Need {
				st.colCount[c]++
			}
		}
	}
	var tables []string
	for t := range stats {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		st := stats[t]
		if len(st.queries) < 2 {
			continue // nothing to share
		}
		leads := topKeys(st.leadCount, 4)
		// Wide candidates may include more columns than per-query ones: they
		// exist to serve many queries from one index, as merged indexes do.
		wideInc := topKeys(st.colCount, 2*opts.MaxIncludeCols)
		for _, lead := range leads {
			var inc []string
			for _, c := range wideInc {
				if c != lead && len(inc) < 2*opts.MaxIncludeCols {
					inc = append(inc, c)
				}
			}
			ix := schema.Index{Table: t, Key: []string{lead}, Include: inc}
			var qs []int
			for qi := range st.queries {
				qs = append(qs, qi)
			}
			sort.Ints(qs)
			for _, qi := range qs {
				addCand(qi, ix)
			}
		}
	}
}

// topKeys returns up to k keys of m with the highest counts, ties broken
// alphabetically for determinism.
func topKeys(m map[string]int, k int) []string {
	type kv struct {
		key string
		n   int
	}
	items := make([]kv, 0, len(m))
	for key, n := range m {
		items = append(items, kv{key, n})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].key < items[j].key
	})
	if len(items) > k {
		items = items[:k]
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.key
	}
	return out
}

// refCandidates emits candidate indexes for one table reference, in priority
// order: filter-leading covering index, join-leading covering indexes,
// filter+join mixed key, sort-leading index, and a pure covering index when
// nothing is sargable.
func refCandidates(r *workload.TableRef, opts Options) []schema.Index {
	var out []schema.Index
	eqCols, rangeCols := splitFilters(r)

	include := func(key []string) []string {
		var inc []string
		for _, n := range r.Need {
			if !containsStr(key, n) && len(inc) < opts.MaxIncludeCols {
				inc = append(inc, n)
			}
		}
		return inc
	}
	emit := func(key []string) {
		if len(key) == 0 {
			return
		}
		out = append(out, schema.Index{Table: r.Table, Key: key, Include: include(key)})
	}

	emitBare := func(key []string) {
		if len(key) == 0 {
			return
		}
		out = append(out, schema.Index{Table: r.Table, Key: key})
	}

	// 1. Filter index: equality columns first, then one range column.
	filterKey := append([]string{}, eqCols...)
	if len(rangeCols) > 0 {
		filterKey = append(filterKey, rangeCols[0])
	}
	emit(filterKey)

	// 2. Single-column filter indexes, one per predicate column.
	if len(filterKey) > 1 {
		for _, c := range eqCols {
			emit([]string{c})
		}
		for _, c := range rangeCols {
			emit([]string{c})
		}
	}

	// 3. Join indexes, one per join column, in covering and key-only forms
	// (the key-only form trades lookups for storage).
	for _, jc := range r.JoinCols {
		emit([]string{jc})
		emitBare([]string{jc})
	}

	// 4. Mixed keys: filters then each join column (index-only join probes
	// with a sargable prefix).
	if len(filterKey) > 0 {
		for _, jc := range r.JoinCols {
			if !containsStr(filterKey, jc) {
				emit(append(append([]string{}, filterKey...), jc))
			}
		}
	}

	// 5. Sort-leading index (avoids the explicit sort).
	if len(r.SortCols) > 0 && !prefixEq(filterKey, r.SortCols) {
		emit(append([]string{}, r.SortCols...))
	}

	// 6. Pure covering index when nothing above applies.
	if len(out) == 0 && len(r.Need) > 0 {
		emit([]string{r.Need[0]})
	}
	return out
}

// splitFilters partitions a ref's filter columns by predicate class, most
// selective first within each class.
func splitFilters(r *workload.TableRef) (eq, rng []string) {
	type cs struct {
		col string
		sel float64
	}
	var eqs, rngs []cs
	seen := make(map[string]bool)
	for _, p := range r.Filters {
		if seen[p.Column] {
			continue
		}
		seen[p.Column] = true
		if p.Op == workload.OpEquality {
			eqs = append(eqs, cs{p.Column, p.Selectivity})
		} else {
			rngs = append(rngs, cs{p.Column, p.Selectivity})
		}
	}
	sort.Slice(eqs, func(i, j int) bool { return eqs[i].sel < eqs[j].sel })
	sort.Slice(rngs, func(i, j int) bool { return rngs[i].sel < rngs[j].sel })
	for _, c := range eqs {
		eq = append(eq, c.col)
	}
	for _, c := range rngs {
		rng = append(rng, c.col)
	}
	return eq, rng
}

func prefixEq(key, sort []string) bool {
	if len(key) < len(sort) {
		return false
	}
	for i := range sort {
		if key[i] != sort[i] {
			return false
		}
	}
	return true
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func dedupePairs(pairs [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(pairs))
	out := pairs[:0]
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
