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
	"encoding/binary"
	"slices"
	"sort"
	"strings"

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
	// Queries holds the queries, as indices into the workload's query list,
	// that proposed the candidate, in generation order: ascending over the
	// per-query pass, then the queries on its table if it is also a wide
	// candidate. A query is deduped only against the previous entry, so an
	// entry can repeat and the list need not be ascending (ROADMAP:
	// "candgen.Candidate.Queries is neither ascending nor free of
	// duplicates"). Its length is the fan-out the universe is ordered by.
	Queries []int
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
	g := &generator{
		w:      w,
		opts:   opts.withDefaults(),
		res:    &Result{PerQuery: make([][]int, len(w.Queries))},
		tables: make(map[string]*tableState),
		byKey:  make(map[string]int),
	}
	type joinSide struct {
		ref int
		col string
	}
	// For atomic pairs: the query's candidate ordinals keyed by (ref, join
	// col), reset per query.
	joinIndexOf := make(map[joinSide]int)
	for qi, q := range w.Queries {
		clear(joinIndexOf)
		for ri := range q.Refs {
			r := &q.Refs[ri]
			ts := g.table(r.Table)
			props := g.refCandidates(r, ts)
			if len(props) > g.opts.MaxPerRef {
				props = props[:g.opts.MaxPerRef]
			}
			for _, p := range props {
				ord := g.intern(r.Table, ts, p)
				g.attach(qi, ord)
				// Remember join-leading candidates for atomic pairs.
				if lead := p.key[0].name; containsStr(r.JoinCols, lead) {
					key := joinSide{ref: ri, col: lead}
					if _, seen := joinIndexOf[key]; !seen {
						joinIndexOf[key] = ord
					}
				}
			}
		}
		for _, j := range q.Joins {
			l, lok := joinIndexOf[joinSide{ref: j.LeftRef, col: j.LeftCol}]
			r, rok := joinIndexOf[joinSide{ref: j.RightRef, col: j.RightCol}]
			if lok && rok && l != r {
				if l > r {
					l, r = r, l
				}
				g.res.AtomicPairs = append(g.res.AtomicPairs, [2]int{l, r})
			}
		}
	}
	g.res.AtomicPairs = dedupePairs(g.res.AtomicPairs)
	g.addWorkloadCandidates()
	g.finish()
	return g.res
}

// generator is one Generate call's state. Proposals are interned by column
// positions: each distinct candidate is materialized as a schema.Index, and
// its ID built, once, when its first proposal arrives.
type generator struct {
	w      *workload.Workload
	opts   Options
	res    *Result
	tables map[string]*tableState
	byKey  map[string]int // position key → candidate ordinal (pre-sort)
	// The candidates by pre-sort ordinal, in chunks of chunkLen that never
	// move, and their IDs.
	cands [][]Candidate
	ids   []string
	strs  []string // the current chunk names carves Key and Include from

	// Per-ref scratch, reused across refCandidates calls.
	props  []proposal
	cols   []col
	keyBuf []byte
	incPos []int
}

// col is a proposal column: its name and its tableState.pos position.
type col struct {
	name string
	pos  int
}

// proposal is a candidate index in column form: key and include columns in
// proposal order.
type proposal struct{ key, inc []col }

// tableState is the generator's per-table state.
type tableState struct {
	t       *schema.Table  // nil if the database has no such table
	id      int            // the table's prefix in position keys
	extra   map[string]int // names t lacks, numbered -1, -2, ...
	queries []int          // queries referencing the table, ascending
	// Wide-candidate demand: join/filter column usage, needed-column usage.
	leadCount, colCount map[string]int
}

// table returns the named table's state, made on first use.
func (g *generator) table(name string) *tableState {
	ts := g.tables[name]
	if ts == nil {
		ts = &tableState{
			t:         g.w.DB.Table(name),
			id:        len(g.tables),
			leadCount: make(map[string]int),
			colCount:  make(map[string]int),
		}
		g.tables[name] = ts
	}
	return ts
}

// pos returns name's position in the table. A column the schema lacks gets
// a negative position of its own, so unvalidated workloads intern exactly as
// their names do.
func (ts *tableState) pos(name string) int {
	if ts.t != nil {
		if i, ok := ts.t.ColumnIndex(name); ok {
			return i
		}
	}
	p, ok := ts.extra[name]
	if !ok {
		if ts.extra == nil {
			ts.extra = make(map[string]int)
		}
		p = -1 - len(ts.extra)
		ts.extra[name] = p
	}
	return p
}

// resolve appends names' columns to the scratch and returns them.
func (g *generator) resolve(ts *tableState, names []string) []col {
	start := len(g.cols)
	for _, n := range names {
		g.cols = append(g.cols, col{n, ts.pos(n)})
	}
	return g.cols[start:len(g.cols):len(g.cols)]
}

// intern returns the ordinal of p's candidate on table, adding the
// candidate if no earlier proposal had its table, key positions and sorted
// include positions. The key is built in a reused buffer, so a lookup of a
// known candidate allocates nothing.
func (g *generator) intern(table string, ts *tableState, p proposal) int {
	g.incPos = g.incPos[:0]
	for _, c := range p.inc {
		g.incPos = append(g.incPos, c.pos)
	}
	slices.Sort(g.incPos)
	b := binary.AppendUvarint(g.keyBuf[:0], uint64(ts.id))
	b = binary.AppendUvarint(b, uint64(len(p.key)))
	for _, c := range p.key {
		b = binary.AppendVarint(b, int64(c.pos))
	}
	for _, pos := range g.incPos {
		b = binary.AppendVarint(b, int64(pos))
	}
	g.keyBuf = b
	if ord, ok := g.byKey[string(b)]; ok {
		return ord
	}
	ord := len(g.ids)
	g.byKey[string(b)] = ord
	ix := schema.Index{Table: table, Key: g.names(p.key), Include: g.names(p.inc)}
	g.ids = append(g.ids, ix.ID())
	rows := int64(0)
	if ts.t != nil {
		rows = ts.t.Rows
	}
	if ord%chunkLen == 0 {
		g.cands = append(g.cands, make([]Candidate, 0, chunkLen))
	}
	last := &g.cands[len(g.cands)-1]
	*last = append(*last, Candidate{Index: ix, TableRows: rows})
	return ord
}

const chunkLen = 1024

// cand returns candidate ord by pre-sort ordinal.
func (g *generator) cand(ord int) *Candidate { return &g.cands[ord/chunkLen][ord%chunkLen] }

// names returns cols' names, nil for none, carved from a shared chunk.
func (g *generator) names(cols []col) []string {
	if len(cols) == 0 {
		return nil
	}
	if cap(g.strs)-len(g.strs) < len(cols) {
		g.strs = make([]string, 0, max(chunkLen, len(cols)))
	}
	start := len(g.strs)
	for _, c := range cols {
		g.strs = append(g.strs, c.name)
	}
	return g.strs[start:len(g.strs):len(g.strs)]
}

// attach records that candidate ord was proposed for query qi during the
// per-query pass, where each query's proposals arrive together: a candidate
// already listed for qi has qi as its last query.
func (g *generator) attach(qi, ord int) {
	c := g.cand(ord)
	if len(c.Queries) == 0 || c.Queries[len(c.Queries)-1] != qi {
		c.Queries = append(c.Queries, qi)
		g.res.PerQuery[qi] = append(g.res.PerQuery[qi], ord)
	}
}

// finish fills Result.Candidates with the universe sorted by descending
// query fan-out, ties broken lexicographically by index ID, and remaps every
// ordinal reference. Tuners order candidates deterministically after
// workload analysis; this is the order FCFS budget allocation consumes. IDs
// are unique, so the order is total.
func (g *generator) finish() {
	perm := make([]int, len(g.ids)) // perm[newOrd] = oldOrd
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if fa, fb := len(g.cand(a).Queries), len(g.cand(b).Queries); fa != fb {
			return fb - fa
		}
		return strings.Compare(g.ids[a], g.ids[b])
	})
	r := g.res
	r.Candidates = make([]Candidate, len(perm))
	inv := make([]int, len(perm)) // inv[oldOrd] = newOrd
	for newOrd, oldOrd := range perm {
		inv[oldOrd] = newOrd
		r.Candidates[newOrd] = *g.cand(oldOrd)
		r.Candidates[newOrd].Ordinal = newOrd
	}
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
// Each wide candidate is interned once and attached to every query on its
// table.
func (g *generator) addWorkloadCandidates() {
	for qi, q := range g.w.Queries {
		for ri := range q.Refs {
			r := &q.Refs[ri]
			ts := g.table(r.Table)
			if n := len(ts.queries); n == 0 || ts.queries[n-1] != qi {
				ts.queries = append(ts.queries, qi)
			}
			for _, c := range r.JoinCols {
				ts.leadCount[c] += 2 // join columns weigh more as leads
			}
			for _, p := range r.Filters {
				ts.leadCount[p.Column]++
			}
			for _, c := range r.Need {
				ts.colCount[c]++
			}
		}
	}
	tables := make([]string, 0, len(g.tables))
	for t := range g.tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		ts := g.tables[t]
		if len(ts.queries) < 2 {
			continue // nothing to share
		}
		leads := topKeys(ts.leadCount, 4)
		// Wide candidates may include more columns than per-query ones: they
		// exist to serve many queries from one index, as merged indexes do.
		wideInc := topKeys(ts.colCount, 2*g.opts.MaxIncludeCols)
		for _, lead := range leads {
			inc := g.cols[:0]
			for _, c := range wideInc {
				if c != lead {
					inc = append(inc, col{c, ts.pos(c)})
				}
			}
			g.cols = inc
			ord := g.intern(t, ts, proposal{key: []col{{lead, ts.pos(lead)}}, inc: inc})
			// The per-query pass listed ord for the ascending queries in
			// prior. A query is deduped in Queries only against the last
			// entry (see Candidate.Queries).
			c := g.cand(ord)
			prior := c.Queries
			c.Queries = slices.Grow(c.Queries, len(ts.queries))
			for _, qi := range ts.queries {
				if n := len(c.Queries); n == 0 || c.Queries[n-1] != qi {
					c.Queries = append(c.Queries, qi)
				}
				if _, listed := slices.BinarySearch(prior, qi); !listed {
					g.res.PerQuery[qi] = append(g.res.PerQuery[qi], ord)
				}
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
	slices.SortFunc(items, func(a, b kv) int {
		if a.n != b.n {
			return b.n - a.n
		}
		return strings.Compare(a.key, b.key)
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

// refCandidates proposes candidate indexes for one table reference, in
// priority order: filter-leading covering index, join-leading covering
// indexes, filter+join mixed key, sort-leading index, and a pure covering
// index when nothing is sargable. The proposals live in the generator's
// scratch until the next call.
func (g *generator) refCandidates(r *workload.TableRef, ts *tableState) []proposal {
	g.props, g.cols = g.props[:0], g.cols[:0]
	eqNames, rangeNames := splitFilters(r)
	eqCols, rangeCols := g.resolve(ts, eqNames), g.resolve(ts, rangeNames)
	joinCols, need := g.resolve(ts, r.JoinCols), g.resolve(ts, r.Need)

	// concat appends parts to the scratch as one key.
	concat := func(parts ...[]col) []col {
		start := len(g.cols)
		for _, p := range parts {
			g.cols = append(g.cols, p...)
		}
		return g.cols[start:len(g.cols):len(g.cols)]
	}
	emit := func(key []col, covering bool) {
		if len(key) == 0 {
			return
		}
		p := proposal{key: key}
		if covering {
			start := len(g.cols)
			for _, n := range need {
				if !containsCol(key, n) && len(g.cols)-start < g.opts.MaxIncludeCols {
					g.cols = append(g.cols, n)
				}
			}
			p.inc = g.cols[start:len(g.cols):len(g.cols)]
		}
		g.props = append(g.props, p)
	}

	// 1. Filter index: equality columns first, then one range column.
	filterKey := eqCols
	if len(rangeCols) > 0 {
		filterKey = concat(eqCols, rangeCols[:1])
	}
	emit(filterKey, true)

	// 2. Single-column filter indexes, one per predicate column.
	if len(filterKey) > 1 {
		for i := range eqCols {
			emit(eqCols[i:i+1], true)
		}
		for i := range rangeCols {
			emit(rangeCols[i:i+1], true)
		}
	}

	// 3. Join indexes, one per join column, in covering and key-only forms
	// (the key-only form trades lookups for storage).
	for i := range joinCols {
		emit(joinCols[i:i+1], true)
		emit(joinCols[i:i+1], false)
	}

	// 4. Mixed keys: filters then each join column (index-only join probes
	// with a sargable prefix).
	if len(filterKey) > 0 {
		for i, jc := range joinCols {
			if !containsCol(filterKey, jc) {
				emit(concat(filterKey, joinCols[i:i+1]), true)
			}
		}
	}

	// 5. Sort-leading index (avoids the explicit sort).
	if len(r.SortCols) > 0 && !prefixEq(filterKey, r.SortCols) {
		emit(g.resolve(ts, r.SortCols), true)
	}

	// 6. Pure covering index when nothing above applies.
	if len(g.props) == 0 && len(need) > 0 {
		emit(need[:1], true)
	}
	return g.props
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

func prefixEq(key []col, sort []string) bool {
	if len(key) < len(sort) {
		return false
	}
	for i := range sort {
		if key[i].name != sort[i] {
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

func containsCol(s []col, v col) bool {
	for _, x := range s {
		if x.pos == v.pos {
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
