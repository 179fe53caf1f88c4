package greedy

import (
	"indextune/internal/iset"
	"indextune/internal/search"
)

// Extractor is the derived-only greedy of DerivedOnly — Algorithm 1 over
// every query and candidate from the empty configuration — memoized across
// calls against the session's growing derived store. MCTS extracts its
// Best-Greedy configuration at every early-stop check (Section 6.3); between
// two checks a few dozen entries arrive, and most of the greedy's
// per-candidate work cannot see them.
//
// For every step i the memo keeps cur_i, dCur_i[q] = d(q, cur_i), the
// step's running cost, the weighted cost drop delta_i[o] of every eligible
// candidate o, and the chosen ordinal o_i. Run folds each entry (q, S, c)
// recorded since the previous call into every memoized step:
//
//   - S ⊆ cur_i: dCur_i[q] becomes min(dCur_i[q], c); if it drops, every
//     candidate q's entries mention (the store's Ordinals(q)) is dirty (and
//     at step 0 the step's cost is re-summed);
//   - S \ cur_i = {o}: only o's delta can change;
//   - otherwise the entry cannot qualify for any candidate of the step:
//     touched lists only grow, and a query whose entries all fail to qualify
//     adds exactly +0.0 to a delta.
//
// Dirty deltas are recomputed by the kernel Search uses, the step's winner
// is rescanned in ordinal order with Search's strict comparison, and each
// step's cost follows Search's chain cost_{i+1} = cost_i − delta_i[o_i]. A
// step whose winner changes discards the steps after it, which are rebuilt
// from scratch. Run therefore returns exactly — configuration and cost bits
// — what Search(s, all queries, all candidates, ∅, k, EvalDerived) returns
// on the current store: min is exact, and every float sum is taken over the
// same terms in the same order.
//
// An Extractor follows the session's single-owner convention: call Run only
// from the goroutine that records into the store.
type Extractor struct {
	s *search.Session
	k int
	// consumed[q] counts the entries of query q already folded into the memo.
	consumed  []int
	steps     []*extractStep
	dirty     []bool  // scratch: per candidate, marked for recomputation
	dirtyList []int32 // scratch: the marked candidates
}

// extractStep is the memo of one greedy step.
type extractStep struct {
	cur   iset.Set
	dCur  []float64 // d(q, cur) per workload query
	cost  float64   // weighted derived workload cost of cur, along Search's chain
	delta []float64 // per candidate: weighted cost drop of adding it to cur
	ok    []bool    // per candidate: eligible (not in cur, fits storage)
	ord   int       // the step's winner, or -1 when the greedy ends here
}

// NewExtractor returns an extractor of the derived-only greedy completion to
// k indexes over s's store. Nothing is computed until Run.
func NewExtractor(s *search.Session, k int) *Extractor {
	m, n := len(s.W.Queries), s.NumCandidates()
	return &Extractor{
		s:        s,
		k:        k,
		consumed: make([]int, m),
		dirty:    make([]bool, n),
	}
}

// Run returns the derived-only greedy configuration and its derived
// workload cost on the store as it is now, bit-identical to DerivedOnly's
// from-scratch search.
func (x *Extractor) Run() (iset.Set, float64) {
	if len(x.steps) == 0 {
		x.start()
	} else {
		x.refresh()
	}
	for qi := range x.consumed {
		x.consumed[qi] = x.s.Derived.Entries(qi)
	}
	for last := x.steps[len(x.steps)-1]; last.ord >= 0; last = x.steps[len(x.steps)-1] {
		x.advance(last)
	}
	last := x.steps[len(x.steps)-1]
	return last.cur.Clone(), last.cost
}

// start computes step 0 from scratch, as Search initializes from ∅.
func (x *Extractor) start() {
	st := x.push()
	st.cur = iset.Set{}
	st.dCur = resize(st.dCur, len(x.consumed))
	x.s.Derived.QueryAll(st.cur, st.dCur)
	st.cost = x.workloadCost(st.dCur)
	x.choose(st)
}

// advance appends the step after prev, computed from scratch: prev's winner
// joins the configuration, the derived costs it can lower are refreshed
// incrementally, and every candidate delta is evaluated anew.
func (x *Extractor) advance(prev *extractStep) {
	st := x.push()
	st.cur = prev.cur.With(prev.ord)
	st.dCur = resize(st.dCur, len(prev.dCur))
	copy(st.dCur, prev.dCur)
	for _, t := range x.s.Derived.TouchedQueries(prev.ord) {
		st.dCur[t.Query] = x.s.Derived.QueryWithTouch(t, prev.cur, prev.dCur[t.Query], prev.ord)
	}
	st.cost = prev.cost - prev.delta[prev.ord]
	x.choose(st)
}

// choose evaluates every candidate of a freshly built step and picks its
// winner; a step at cardinality k has none.
func (x *Extractor) choose(st *extractStep) {
	st.ord = -1
	if st.cur.Len() >= x.k {
		return
	}
	n := len(x.dirty)
	st.delta = resize(st.delta, n)
	st.ok = resize(st.ok, n)
	for o := range st.ok {
		st.ok[o] = !st.cur.Has(o) && x.s.FitsStorage(st.cur, o)
		if st.ok[o] {
			st.delta[o] = candidateDelta(x.s, nil, st.cur, st.dCur, o)
		}
	}
	st.ord = st.best()
}

// refresh folds the new entries into the memoized steps in order. The
// first step whose winner changes truncates the memo there; Run rebuilds
// the rest.
func (x *Extractor) refresh() {
	for i, st := range x.steps {
		if i > 0 {
			prev := x.steps[i-1]
			st.cost = prev.cost - prev.delta[prev.ord]
		}
		dropped := x.fold(st)
		if i == 0 && dropped {
			st.cost = x.workloadCost(st.dCur)
		}
		if st.cur.Len() >= x.k {
			x.clearDirty()
			return
		}
		for _, o := range x.dirtyList {
			if st.ok[o] {
				st.delta[o] = candidateDelta(x.s, nil, st.cur, st.dCur, int(o))
			}
		}
		x.clearDirty()
		if ord := st.best(); ord != st.ord {
			st.ord = ord
			x.steps = x.steps[:i+1]
			return
		}
	}
}

// fold applies the entries recorded since the previous Run to one step's
// derived costs and marks the candidates whose delta they can change. It
// reports whether any d(q, cur) dropped.
func (x *Extractor) fold(st *extractStep) bool {
	ds := x.s.Derived
	dropped := false
	for qi, from := range x.consumed {
		for pos := from; pos < ds.Entries(qi); pos++ {
			set, c := ds.EntryAt(qi, pos)
			out, missing := -1, 0
			for _, o := range set {
				if !st.cur.Has(int(o)) {
					out = int(o)
					if missing++; missing > 1 {
						break
					}
				}
			}
			switch missing {
			case 0:
				if c < st.dCur[qi] {
					st.dCur[qi] = c
					dropped = true
					for _, o := range ds.Ordinals(qi) {
						x.markDirty(o)
					}
				}
			case 1:
				x.markDirty(int32(out))
			}
		}
	}
	return dropped
}

func (x *Extractor) markDirty(o int32) {
	if !x.dirty[o] {
		x.dirty[o] = true
		x.dirtyList = append(x.dirtyList, o)
	}
}

func (x *Extractor) clearDirty() {
	for _, o := range x.dirtyList {
		x.dirty[o] = false
	}
	x.dirtyList = x.dirtyList[:0]
}

// best rescans the step's candidates in ordinal order with derivedStep's
// strict comparison.
func (st *extractStep) best() int {
	bestOrd, bestCost := -1, st.cost
	for o, ok := range st.ok {
		if !ok {
			continue
		}
		if c := st.cost - st.delta[o]; c < bestCost {
			bestOrd, bestCost = o, c
		}
	}
	return bestOrd
}

// workloadCost sums the weighted derived costs in query order, as Search
// does for its starting configuration.
func (x *Extractor) workloadCost(dCur []float64) float64 {
	c := 0.0
	for qi, d := range dCur {
		c += d * x.s.W.Queries[qi].EffectiveWeight()
	}
	return c
}

// push appends a step, reusing the buffers of a step an earlier refresh
// truncated away.
func (x *Extractor) push() *extractStep {
	n := len(x.steps)
	if n < cap(x.steps) {
		x.steps = x.steps[:n+1]
		if x.steps[n] != nil {
			return x.steps[n]
		}
	} else {
		x.steps = append(x.steps, nil)
	}
	x.steps[n] = new(extractStep)
	return x.steps[n]
}

// resize returns b with length n, reallocating only when it is too small.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
