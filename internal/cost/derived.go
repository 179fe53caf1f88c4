// Package cost implements the cost-approximation machinery of Section 3:
// cost derivation over cached what-if calls (Equations 1 and 2), the benefit
// function and its submodular structure (Theorem 1), and percentage
// improvement (Equation 4). The budget-allocation layout of Section 3.2 is
// the session's stream of commit trace events (see internal/search).
package cost

import (
	"indextune/internal/iset"
	"indextune/internal/workload"
)

// entry is one known what-if cost for a (query, configuration) pair.
type entry struct {
	set  iset.Small
	cost float64
}

// postings is one query's share of the store: its entries in recording
// order plus an inverted index from candidate ordinal to entry positions.
// The index is keyed by the ordinals the query's entries actually mention —
// never sized to the candidate universe — so memory grows with what was
// recorded.
type postings struct {
	entries []entry
	empty   []int32         // positions of empty-configuration entries
	slot    map[int32]int32 // candidate ordinal -> index into lists
	lists   []posting
}

// posting holds the entry positions of one (query, ordinal) pair, ascending.
// all lists every entry mentioning the ordinal; head lists only the entries
// filed under it, each non-empty entry being filed under exactly one of its
// ordinals — the one with the shortest list when it was recorded, so
// entries land on rare ordinals rather than on the ones every configuration
// of a greedy run shares.
type posting struct {
	all  []int32
	head []int32
}

// list returns the posting of ordinal o, or nil when no entry mentions it.
func (p *postings) list(o int32) *posting {
	if i, ok := p.slot[o]; ok {
		return &p.lists[i]
	}
	return nil
}

// subsetMin returns the minimum of d and the costs of the entries whose
// configuration is a subset of cfg (ords: cfg's members, ascending). Such an
// entry is empty or filed under one of its own ordinals, all of which are in
// cfg, so the empty entries plus the head lists of cfg's ordinals cover
// every candidate, each once.
func (p *postings) subsetMin(d float64, cfg iset.Set, ords iset.Small) float64 {
	for _, pos := range p.empty {
		if c := p.entries[pos].cost; c < d {
			d = c
		}
	}
	for _, o := range ords {
		l := p.list(o)
		if l == nil {
			continue
		}
		for _, pos := range l.head {
			e := &p.entries[pos]
			if e.cost < d && e.set.SubsetOfSet(cfg) {
				d = e.cost
			}
		}
	}
	return d
}

// scanMax is the entry count up to which subset reads scan every entry:
// below it the scan is cheaper than looking up cfg's ordinals.
const scanMax = 48

// scanMin is subsetMin by a scan over every entry.
func (p *postings) scanMin(d float64, cfg iset.Set) float64 {
	for i := range p.entries {
		e := &p.entries[i]
		if e.cost < d && e.set.SubsetOfSet(cfg) {
			d = e.cost
		}
	}
	return d
}

// supersetMax returns the maximum of lo and the costs of the entries whose
// configuration contains every ordinal of ords. A superset of a non-empty
// cfg is on the posting list of each of cfg's ordinals, so only the
// shortest such list is walked.
func (p *postings) supersetMax(lo float64, ords iset.Small) float64 {
	if len(ords) == 0 {
		for i := range p.entries {
			if c := p.entries[i].cost; c > lo {
				lo = c
			}
		}
		return lo
	}
	var short []int32
	for i, o := range ords {
		l := p.list(o)
		if l == nil {
			return lo
		}
		if i == 0 || len(l.all) < len(short) {
			short = l.all
		}
	}
	for _, pos := range short {
		e := &p.entries[pos]
		if e.cost > lo && containsAll(e.set, ords) {
			lo = e.cost
		}
	}
	return lo
}

// containsAll reports whether sorted sub ⊆ sorted sup by a single merge.
func containsAll(sup, sub iset.Small) bool {
	if len(sub) > len(sup) {
		return false
	}
	j := 0
	for _, o := range sub {
		for j < len(sup) && sup[j] < o {
			j++
		}
		if j == len(sup) || sup[j] != o {
			return false
		}
		j++
	}
	return true
}

// smallBuf sizes the stack buffer reads collect cfg's ordinals into: every
// configuration a tuning run asks about has at most K+1 members, so reads
// stay allocation-free for K < smallBuf; larger configurations spill to
// the heap and are answered the same.
const smallBuf = 32

// DerivedStore records the what-if costs observed so far and answers derived
// cost queries: d(q, C) = min over known subsets S ⊆ C of c(q, S)
// (Equation 1), with d(q, ∅) = c(q, ∅).
//
// Reads of queries with more than scanMax entries visit only the entries
// that can qualify, through per-query ordinal postings (DESIGN §16); their
// answers equal those of a scan over every recorded entry, since min and
// max over the same qualifying entries do not depend on visit order.
type DerivedStore struct {
	w    *workload.Workload
	base []float64  // c(q, ∅) per query
	byQ  []postings // known costs per query, with their ordinal postings
	// touched maps a candidate ordinal to the queries with entries
	// mentioning it, each listed once, when its first such entry is
	// recorded. Recording order can interleave queries arbitrarily
	// (parallel MCTS commits, per-query greedy phases); the query's posting
	// slot map already records which ordinals it has seen, so a slot miss
	// is exactly the first entry of the query mentioning the ordinal.
	touched map[int][]int
	// floors[i] = c(q_i, U) for the full candidate universe U, or -1 when
	// not yet probed. By Assumption 1 (monotonicity) this is a lower bound
	// on c(q_i, C) for every C ⊆ U — the per-query improvement floor the
	// early-stopping checker aggregates. Floors are kept out of the entries
	// and postings on purpose: a universe-sized entry would put every query
	// on every ordinal's touched list and destroy the sparsity the greedy
	// fast path relies on.
	floors []float64
}

// NewDerivedStore creates a store for w with the given baseline costs
// (base[i] = c(w.Queries[i], ∅)).
func NewDerivedStore(w *workload.Workload, base []float64) *DerivedStore {
	return &DerivedStore{
		w:       w,
		base:    base,
		byQ:     make([]postings, len(w.Queries)),
		touched: make(map[int][]int),
	}
}

// Base returns c(q_i, ∅).
func (ds *DerivedStore) Base(qi int) float64 { return ds.base[qi] }

// BaseWorkload returns cost(W, ∅).
func (ds *DerivedStore) BaseWorkload() float64 {
	t := 0.0
	for qi, b := range ds.base {
		t += b * ds.w.Queries[qi].EffectiveWeight()
	}
	return t
}

// Record registers the observed what-if cost c(q_i, cfg).
func (ds *DerivedStore) Record(qi int, cfg iset.Set, c float64) {
	sm := iset.SmallFromSet(cfg)
	p := &ds.byQ[qi]
	pos := int32(len(p.entries))
	p.entries = append(p.entries, entry{set: sm, cost: c})
	if len(sm) == 0 {
		p.empty = append(p.empty, pos)
	}
	if p.slot == nil && len(sm) > 0 {
		p.slot = make(map[int32]int32)
	}
	head := int32(-1)
	for _, o := range sm {
		i, ok := p.slot[o]
		if !ok {
			i = int32(len(p.lists))
			p.slot[o] = i
			p.lists = append(p.lists, posting{})
			ds.touched[int(o)] = append(ds.touched[int(o)], qi)
		}
		l := &p.lists[i]
		l.all = append(l.all, pos)
		if head < 0 || len(l.all) < len(p.lists[head].all) {
			head = i
		}
	}
	if head >= 0 {
		p.lists[head].head = append(p.lists[head].head, pos)
	}
}

// RecordFloor registers the probed cost c = c(q_i, U) of the full candidate
// universe: the tightest sound lower bound on c(q_i, C) for every C ⊆ U
// (Assumption 1). Re-recording a floor overwrites the previous value.
func (ds *DerivedStore) RecordFloor(qi int, c float64) {
	if ds.floors == nil {
		ds.floors = make([]float64, len(ds.base))
		for i := range ds.floors {
			ds.floors[i] = -1
		}
	}
	ds.floors[qi] = c
}

// Floor returns the recorded universe cost floor for q_i, with ok false when
// the floor has not been probed.
func (ds *DerivedStore) Floor(qi int) (c float64, ok bool) {
	if ds.floors == nil || ds.floors[qi] < 0 {
		return 0, false
	}
	return ds.floors[qi], true
}

// EntryAt returns the pos-th recorded entry of query qi (0 ≤ pos <
// Entries(qi)), in recording order. The returned Small must not be modified.
// Incremental consumers — the early-stopping checker — use it to fold in only
// the entries recorded since their last visit.
func (ds *DerivedStore) EntryAt(qi, pos int) (set iset.Small, cost float64) {
	e := &ds.byQ[qi].entries[pos]
	return e.set, e.cost
}

// TouchedQueries returns the queries that have at least one recorded entry
// mentioning candidate ord. The slice is in recording order (not sorted)
// and must not be modified.
func (ds *DerivedStore) TouchedQueries(ord int) []int {
	return ds.touched[ord]
}

// Entries returns the number of recorded what-if costs for query qi.
func (ds *DerivedStore) Entries(qi int) int { return len(ds.byQ[qi].entries) }

// Query returns d(q_i, cfg) per Equation 1.
func (ds *DerivedStore) Query(qi int, cfg iset.Set) float64 {
	p := &ds.byQ[qi]
	if len(p.entries) <= scanMax {
		return p.scanMin(ds.base[qi], cfg)
	}
	var buf [smallBuf]int32
	return p.subsetMin(ds.base[qi], cfg, cfg.AppendSmall(buf[:0]))
}

// Bounds returns monotonicity-derived bounds on c(q_i, cfg) from the
// recorded what-if costs (Assumption 1: cost(q, C2) ≤ cost(q, C1) whenever
// C1 ⊆ C2). The upper bound is d(q_i, cfg) of Equation 1 — the minimum cost
// over known subsets of cfg, including the baseline c(q_i, ∅) — and the
// lower bound is the maximum over the costs of known supersets of cfg and
// the probed universe floor (every configuration is a subset of U), with 0
// when neither has been observed. lo ≤ hi always holds; the bounds are tight
// (lo == hi) whenever cfg itself has been recorded: such an entry is its own
// subset and superset, so both sides see its cost.
func (ds *DerivedStore) Bounds(qi int, cfg iset.Set) (lo, hi float64) {
	p := &ds.byQ[qi]
	var buf [smallBuf]int32
	ords := cfg.AppendSmall(buf[:0])
	if len(p.entries) <= scanMax {
		hi = p.scanMin(ds.base[qi], cfg)
	} else {
		hi = p.subsetMin(ds.base[qi], cfg, ords)
	}
	if ds.floors != nil && ds.floors[qi] > 0 {
		lo = ds.floors[qi]
	}
	lo = p.supersetMax(lo, ords)
	if lo > hi {
		// Recorded costs of nested configurations can invert by at most
		// floating-point noise; clamp so callers get a well-formed interval.
		lo = hi
	}
	return lo, hi
}

// QueryWith returns d(q_i, base ∪ {add}) given dBase = d(q_i, base),
// examining only entries that mention the added index. This is the
// incremental form the greedy inner loop relies on.
func (ds *DerivedStore) QueryWith(qi int, base iset.Set, dBase float64, add int) float64 {
	p := &ds.byQ[qi]
	d := dBase
	l := p.list(int32(add))
	if l == nil {
		return d
	}
	for _, pos := range l.all {
		e := &p.entries[pos]
		if e.cost >= d {
			continue
		}
		ok := true
		for _, o := range e.set {
			if int(o) != add && !base.Has(int(o)) {
				ok = false
				break
			}
		}
		if ok {
			d = e.cost
		}
	}
	return d
}

// Workload returns d(W, cfg) = Σ_q weight(q)·d(q, cfg).
func (ds *DerivedStore) Workload(cfg iset.Set) float64 {
	t := 0.0
	for qi := range ds.byQ {
		t += ds.Query(qi, cfg) * ds.w.Queries[qi].EffectiveWeight()
	}
	return t
}

// Improvement returns η(W, cfg) per Equation 4, computed over derived
// costs, as a fraction in [0, 1].
func (ds *DerivedStore) Improvement(cfg iset.Set) float64 {
	base := ds.BaseWorkload()
	if base <= 0 {
		return 0
	}
	return 1 - ds.Workload(cfg)/base
}
