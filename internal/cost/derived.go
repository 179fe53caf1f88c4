// Package cost implements the cost-approximation machinery of Section 3:
// cost derivation over cached what-if calls (Equations 1 and 2), the benefit
// function and its submodular structure (Theorem 1), and percentage
// improvement (Equation 4). The budget-allocation layout of Section 3.2 is
// the session's stream of commit trace events (see internal/search).
package cost

import (
	"math/bits"

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
// The index is a small open-addressed table keyed by the ordinals the
// query's entries mention, so it takes memory in proportion to what was
// recorded, never to the candidate universe.
type postings struct {
	entries []entry
	empty   []int32 // positions of empty-configuration entries
	// index is a linear-probing hash table, at most half full, mapping each
	// ordinal the entries mention to the index into lists of its posting;
	// free slots hold ord and list −1. Its occupied slots number len(lists).
	index []indexSlot
	lists []posting
	ords  []int32 // ords[i] is the ordinal of lists[i], in first-mention order
}

// indexSlot maps one ordinal to its posting.
type indexSlot struct {
	ord, list int32
}

// indexMinSlots is the initial size of an index table (a power of two).
const indexMinSlots = 8

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

// find returns the index into lists of ordinal o's posting, or -1 when no
// entry mentions o.
func (p *postings) find(o int32) int32 {
	if len(p.lists) == 0 {
		return -1
	}
	return p.index[p.slotOf(o)].list
}

// slotOf returns the position of ordinal o in the index, or of the free
// slot where it would go. The index must not be empty.
func (p *postings) slotOf(o int32) int {
	mask := len(p.index) - 1
	// Fibonacci hashing: the top bits of the product index the table.
	i := int(uint32(o) * 0x9e3779b1 >> bits.LeadingZeros32(uint32(mask)))
	for p.index[i].ord != o && p.index[i].ord >= 0 {
		i = (i + 1) & mask
	}
	return i
}

// list returns the posting of ordinal o, or nil when no entry mentions it.
func (p *postings) list(o int32) *posting {
	if i := p.find(o); i >= 0 {
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

// Touch names one query whose recorded entries mention an ordinal, and that
// ordinal's posting among the query's postings.
type Touch struct {
	Query   int32
	posting int32
}

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
	// byOrd holds, for each ordinal some entry mentions, the queries with
	// entries mentioning it, each once, with the ordinal's posting in that
	// query, in the order of each query's first such entry. Recording
	// order can interleave queries arbitrarily (parallel MCTS commits,
	// per-query greedy phases); the query's postings already record which
	// ordinals it has seen, so a posting miss is exactly the first entry
	// of the query mentioning the ordinal.
	byOrd [][]Touch
	// ordIdx[o] is one more than the index of ordinal o's list in byOrd,
	// or 0 when no entry mentions o. It is as long as the largest recorded
	// ordinal plus one, at 4 bytes an ordinal, so an ordinal no entry
	// mentions costs no slice header (DESIGN §16).
	ordIdx []int32
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
		w:    w,
		base: base,
		byQ:  make([]postings, len(w.Queries)),
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
	head := int32(-1)
	for _, o := range sm {
		i := p.find(o)
		if i < 0 {
			i = p.add(o)
			for int(o) >= len(ds.ordIdx) {
				ds.ordIdx = append(ds.ordIdx, 0)
			}
			if ds.ordIdx[o] == 0 {
				ds.byOrd = append(ds.byOrd, nil)
				ds.ordIdx[o] = int32(len(ds.byOrd))
			}
			l := &ds.byOrd[ds.ordIdx[o]-1]
			*l = append(*l, Touch{Query: int32(qi), posting: i})
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

// add creates the posting of ordinal o, which no entry mentioned before,
// and returns its index into lists.
func (p *postings) add(o int32) int32 {
	i := int32(len(p.lists))
	p.lists = append(p.lists, posting{})
	p.ords = append(p.ords, o)
	if 2*len(p.lists) > len(p.index) {
		old := p.index
		size := 2 * len(old)
		if size == 0 {
			size = indexMinSlots
		}
		p.index = make([]indexSlot, size)
		for j := range p.index {
			p.index[j] = indexSlot{ord: -1, list: -1}
		}
		for _, sl := range old {
			if sl.ord >= 0 {
				p.index[p.slotOf(sl.ord)] = sl
			}
		}
	}
	p.index[p.slotOf(o)] = indexSlot{ord: o, list: i}
	return i
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
// Incremental consumers use it to fold in only the entries recorded since
// their last visit.
func (ds *DerivedStore) EntryAt(qi, pos int) (set iset.Small, cost float64) {
	e := &ds.byQ[qi].entries[pos]
	return e.set, e.cost
}

// TouchedQueries returns the queries that have at least one recorded entry
// mentioning candidate ord, each with ord's posting for QueryWithTouch. The
// slice is in recording order (not sorted) and must not be modified.
func (ds *DerivedStore) TouchedQueries(ord int) []Touch {
	if ord >= len(ds.ordIdx) || ds.ordIdx[ord] == 0 {
		return nil
	}
	return ds.byOrd[ds.ordIdx[ord]-1]
}

// Ordinals returns the ordinals query qi's recorded entries mention, each
// once, in first-mention order. The slice must not be modified.
func (ds *DerivedStore) Ordinals(qi int) []int32 { return ds.byQ[qi].ords }

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

// QueryAll sets d[q] = d(q, cfg) for every query of the workload (len(d)
// must be the query count). It collects cfg's members once and walks, for
// each, the head lists of the queries TouchedQueries names: every entry
// S ⊆ cfg is empty or filed under a member of cfg, so each query's answer
// is the minimum over the same qualifying entries Query visits.
func (ds *DerivedStore) QueryAll(cfg iset.Set, d []float64) {
	for qi := range ds.byQ {
		p := &ds.byQ[qi]
		d[qi] = ds.base[qi]
		for _, pos := range p.empty {
			if c := p.entries[pos].cost; c < d[qi] {
				d[qi] = c
			}
		}
	}
	var buf [smallBuf]int32
	for _, o := range cfg.AppendSmall(buf[:0]) {
		if int(o) >= len(ds.ordIdx) {
			break
		}
		for _, t := range ds.TouchedQueries(int(o)) {
			p := &ds.byQ[t.Query]
			dq := d[t.Query]
			for _, pos := range p.lists[t.posting].head {
				e := &p.entries[pos]
				if e.cost < dq && e.set.SubsetOfSet(cfg) {
					dq = e.cost
				}
			}
			d[t.Query] = dq
		}
	}
}

// QueryWith returns d(q_i, base ∪ {add}) given dBase = d(q_i, base),
// examining only entries that mention the added index. This is the
// incremental form the greedy inner loop relies on.
func (ds *DerivedStore) QueryWith(qi int, base iset.Set, dBase float64, add int) float64 {
	p := &ds.byQ[qi]
	l := p.list(int32(add))
	if l == nil {
		return dBase
	}
	return p.withMin(l, base, dBase, add)
}

// QueryWithTouch is QueryWith for the query t names, t taken from
// TouchedQueries(add): it reads add's posting without looking it up.
func (ds *DerivedStore) QueryWithTouch(t Touch, base iset.Set, dBase float64, add int) float64 {
	p := &ds.byQ[t.Query]
	return p.withMin(&p.lists[t.posting], base, dBase, add)
}

// withMin returns the minimum of d and the costs of the entries on l, the
// posting of add, whose other ordinals are all in base.
func (p *postings) withMin(l *posting, base iset.Set, d float64, add int) float64 {
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
	d := make([]float64, len(ds.byQ))
	ds.QueryAll(cfg, d)
	t := 0.0
	for qi, dq := range d {
		t += dq * ds.w.Queries[qi].EffectiveWeight()
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
