package whatif

import (
	"math"
	"sync"
	"time"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// This file implements the cost model proper. Every cost — WhatIf and
// WhatIfBatch misses, PeekCost, BaseCost, Plan and Explain — is scored
// against the query's interned plan space: buildSpace walks the parts of
// the plan that do not depend on the configuration ONCE — join order,
// cardinality chain, per-candidate access and probe facts — and evalSpace
// scores a configuration by selecting per-operator minima from the
// precomputed tables.
//
// Why the split is sound: the baseline access facts (selectivity, output
// rows) come from table statistics and the ref's own predicates only, never
// from the configuration, so pipelineOrder (which reads only sel/rowsOut),
// joinColsTo, and the curRows/fetched cardinality chain are the same for
// every configuration of one query. The configuration enters the model in
// exactly two places, both minima over admitted alternatives: the per-ref
// access choice and the per-join INL probe choice. planSpace tabulates the
// alternatives' costs; evalSpace replays the minima under a membership
// filter.

// accessEntry is one candidate access path for a ref: the ordinal and its
// full access cost (indexAccessCost plus the sort penalty when the key does
// not provide the ref's order).
type accessEntry struct {
	ord  int
	cost float64
}

// refAccess is the per-ref slice of the plan space: the configuration-free
// baseline (heap scan, or the missing-table unit cost) and the admitted
// index alternatives in relevance order.
type refAccess struct {
	baseCost float64
	rowsOut  float64
	entries  []accessEntry
}

// inlEntry is one candidate inner-side join index for a pipeline step: the
// ordinal plus the covering flag and entry width that decide its fetch cost.
type inlEntry struct {
	ord    int
	covers bool
	ew     float64 // float64(ix.EntryWidth(db)), folded once at build time
}

// joinStep is one pipeline step after the seed ref, with every
// configuration-independent quantity of that step.
type joinStep struct {
	ref        int
	standalone bool // disconnected ref: no join, output rows not propagated
	curRows    float64
	fetched    float64
	hasTable   bool
	pages      float64
	inl        []inlEntry // admitted probe indexes, in relevance order
}

// planSpace is the interned configuration-independent plan structure of one
// query: the pipeline seed, the join steps in pipeline order, the per-ref
// access tables, and the final output cardinality.
type planSpace struct {
	empty     bool
	seed      int // order[0]
	acc       []refAccess
	steps     []joinStep
	finalRows float64
	// size is the approximate resident footprint charged against the
	// optimizer's plan-space budget, computed once at build time.
	size int64
}

// sizeBytes estimates a plan space's resident footprint: struct headers plus
// the per-ref and per-step alternative tables.
func (ps *planSpace) sizeBytes() int64 {
	n := int64(96)
	for i := range ps.acc {
		n += 40 + 16*int64(len(ps.acc[i].entries))
	}
	for i := range ps.steps {
		n += 64 + 24*int64(len(ps.steps[i].inl))
	}
	return n
}

// batchScratch is the reusable per-call arena of WhatIfBatch: the per-ref
// access-cost minima for the configuration currently being scored, plus a
// slab of inflight registrations so leader claims allocate nothing. The slab
// returns to the pool only when no pair attracted a concurrent waiter — a
// waiter may still be reading its slot after the batch completes.
type batchScratch struct {
	acc []float64
	cls []inflightCall
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// space returns the interned plan space of q, building (or rebuilding, after
// a bounded-mode release) it on first use. The fast path is one atomic load;
// the returned pointer stays valid for the caller even if a concurrent
// release sweep drops the interned reference. Using a space sets its CLOCK
// bit so the release sweep gives recently-used spaces a second chance.
func (o *Optimizer) space(q *workload.Query, in *queryInfo) *planSpace {
	if ps := in.space.Load(); ps != nil {
		if in.spaceRef.Load() == 0 {
			in.spaceRef.Store(1)
		}
		return ps
	}
	in.spaceMu.Lock()
	ps := in.space.Load()
	if ps == nil {
		ps = o.buildSpace(q, in, nil)
		ps.size = ps.sizeBytes()
		in.spaceRef.Store(1)
		in.space.Store(ps)
		o.spaceBytes.Add(ps.size)
		o.spaceCount.Add(1)
	}
	in.spaceMu.Unlock()
	if limit := o.spaceCap; limit > 0 && o.spaceBytes.Load() > limit {
		o.releaseColdSpaces(limit)
	}
	return ps
}

// releaseColdSpaces walks the interned queries and drops plan spaces whose
// CLOCK bit is clear until the resident total fits under limit; spaces used
// since the previous sweep get their bit cleared instead (second chance).
// A released space is rebuilt deterministically on next use — plan spaces
// are pure functions of (schema, candidates, query), so release is
// result-neutral by construction. One sweep runs at a time; overlapping
// triggers return immediately rather than convoying on sweepMu.
func (o *Optimizer) releaseColdSpaces(limit int64) {
	if !o.sweepMu.TryLock() {
		return
	}
	defer o.sweepMu.Unlock()
	o.infos.Range(func(_, v any) bool {
		if o.spaceBytes.Load() <= limit {
			return false
		}
		in := v.(*queryInfo)
		if in.space.Load() == nil {
			return true
		}
		if in.spaceRef.Load() != 0 {
			in.spaceRef.Store(0)
			return true
		}
		in.spaceMu.Lock()
		if ps := in.space.Load(); ps != nil {
			in.space.Store(nil)
			o.spaceBytes.Add(-ps.size)
			o.spaceCount.Add(-1)
		}
		in.spaceMu.Unlock()
		return true
	})
}

// buildSpace walks the configuration-independent part of the plan once:
// baseline access facts, pipeline order, cardinality chain, and the admitted
// index alternatives per operator. Only the query's relevant candidates are
// visited, cost-preserving by construction of the relevance projection.
// within, when non-nil, further restricts the alternatives to its members;
// the result scores exactly the configurations contained in *within (an
// empty set leaves only the baseline, which scores cost(q, ∅)).
func (o *Optimizer) buildSpace(q *workload.Query, in *queryInfo, within *iset.Set) *planSpace {
	n := len(q.Refs)
	if n == 0 {
		return &planSpace{empty: true}
	}
	access := make([]accessChoice, n)
	for i := range q.Refs {
		access[i] = o.baseAccess(&q.Refs[i])
	}
	ps := &planSpace{seed: -1, acc: make([]refAccess, n)}
	for i := range q.Refs {
		r := &q.Refs[i]
		ra := refAccess{baseCost: access[i].cost, rowsOut: access[i].rowsOut}
		t := o.DB.Table(r.Table)
		if t != nil {
			needSort := len(r.SortCols) > 0
			for _, ord := range in.relByTable[r.Table] {
				if within != nil && !within.Has(ord) {
					continue
				}
				ix := &o.Candidates[ord]
				c, ok, ordered := o.indexAccessCost(t, r, ix, access[i].rowsOut)
				if !ok {
					continue
				}
				if needSort && !ordered {
					c += access[i].sortCost
				}
				ra.entries = append(ra.entries, accessEntry{ord: ord, cost: c})
			}
		}
		ps.acc[i] = ra
	}

	order := o.pipelineOrder(q, access)
	ps.seed = order[0]
	joined := make([]bool, n)
	joined[order[0]] = true
	curRows := access[order[0]].rowsOut
	for _, i := range order[1:] {
		r := &q.Refs[i]
		innerCols := joinColsTo(q, joined, i)
		st := joinStep{ref: i}
		if len(innerCols) == 0 {
			// Disconnected ref (independent subquery): accessed on its own,
			// producing its own output rows.
			st.standalone = true
			joined[i] = true
			ps.steps = append(ps.steps, st)
			continue
		}
		st.curRows = curRows
		st.fetched = joinOutputRows(o.DB, curRows, r, innerCols[0], access[i].rowsOut)
		t := o.DB.Table(r.Table)
		st.hasTable = t != nil
		if t != nil {
			st.pages = t.Pages()
		}
		// Index-nested-loop candidates: an inner-side index whose leading
		// key is one of the connecting join columns.
		for _, ord := range in.relByTable[r.Table] {
			ix := &o.Candidates[ord]
			if (within != nil && !within.Has(ord)) || !containsCol(innerCols, ix.Key[0]) {
				continue
			}
			st.inl = append(st.inl, inlEntry{
				ord:    ord,
				covers: ix.Covers(r.Need),
				ew:     float64(ix.EntryWidth(o.DB)),
			})
		}
		curRows = st.fetched
		joined[i] = true
		ps.steps = append(ps.steps, st)
	}
	ps.finalRows = curRows
	return ps
}

// choice is the winning alternative of one plan operator: the candidate
// ordinal (-1 for the baseline access path or a hash join) and the
// operator's cost.
type choice struct {
	ord  int
	cost float64
}

// evalSpace scores cfg against the plan space, using acc (len(ps.acc)) as
// scratch for the per-ref access minima. When win is non-nil (len(ps.acc) +
// len(ps.steps)), it also records the winner of every operator — per ref
// the access path and its cost, then per step the join alternative and its
// join cost — for Plan; the hot paths pass nil.
func (o *Optimizer) evalSpace(ps *planSpace, cfg iset.Set, acc []float64, win []choice) float64 {
	if ps.empty {
		return 0
	}
	// Per-ref access minima: a strict-< scan over admitted alternatives,
	// seeded with the baseline.
	for i := range ps.acc {
		ra := &ps.acc[i]
		best, bestOrd := ra.baseCost, -1
		for _, e := range ra.entries {
			if cfg.Has(e.ord) && e.cost < best {
				best, bestOrd = e.cost, e.ord
			}
		}
		acc[i] = best
		if win != nil {
			win[i] = choice{bestOrd, best}
		}
	}

	total := acc[ps.seed]
	for si := range ps.steps {
		st := &ps.steps[si]
		i := st.ref
		if st.standalone {
			total += acc[i] + cpuPerRow*ps.acc[i].rowsOut
			if win != nil {
				win[len(ps.acc)+si] = choice{-1, acc[i]}
			}
			continue
		}
		curRows := st.curRows
		fetched := st.fetched
		// Hash join: access the inner by its best path, then build+probe.
		hash := acc[i] + hashPerRow*(curRows+ps.acc[i].rowsOut)
		// Index-nested-loop: probe an inner-side index, replacing the inner
		// access.
		inl, inlOrd := math.Inf(1), -1
		for _, e := range st.inl {
			if !cfg.Has(e.ord) {
				continue
			}
			c := curRows*inlDescend + cpuPerRow*fetched
			if e.covers {
				// Fetched rows stream off the index leaves.
				c += fetched * e.ew / schema.PageSize
			} else if st.hasTable {
				// Random heap lookups, capped at re-reading the table.
				lookups := fetched
				if lookups > st.pages {
					lookups = st.pages
				}
				c += lookups
			}
			if c < inl {
				inl, inlOrd = c, e.ord
			}
		}
		join := choice{-1, hash}
		if inl < hash {
			join = choice{inlOrd, inl}
		}
		total += join.cost
		if win != nil {
			win[len(ps.acc)+si] = join
		}
	}
	total += cpuPerRow * ps.finalRows
	if total < 1 {
		total = 1
	}
	return total
}

// score evaluates cfg against ps with pooled scratch.
func (o *Optimizer) score(ps *planSpace, cfg iset.Set) float64 {
	sc := scratchPool.Get().(*batchScratch)
	sc.acc = growFloats(sc.acc, len(ps.acc))
	c := o.evalSpace(ps, cfg, sc.acc, nil)
	scratchPool.Put(sc)
	return c
}

// peekSpace returns a plan space that scores cfg for a one-shot evaluation
// (PeekCost, Plan): q's interned space when it is resident, else a space
// restricted to cfg's alternatives, built without interning — so the oracle
// evaluation of a final configuration does not pay for the full
// alternative tables of queries the search never scored.
func (o *Optimizer) peekSpace(q *workload.Query, in *queryInfo, cfg iset.Set) *planSpace {
	if ps := in.space.Load(); ps != nil {
		return ps
	}
	return o.buildSpace(q, in, &cfg)
}

// growFloats returns s resized to n, reusing its capacity.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// WhatIfBatch returns cost(q, cfg) for every configuration in cfgs, with
// counting, caching, and simulated latency per pair exactly as len(cfgs)
// sequential WhatIf calls would perform them: cached pairs count cache hits,
// missing pairs count calls, and duplicate configurations within one batch
// hit the cache after the first fills it. The difference is purely
// mechanical: the plan space is looked up once per batch and leader claims
// register in a pooled slab, so a batch allocates only the result slice.
func (o *Optimizer) WhatIfBatch(q *workload.Query, cfgs []iset.Set) []float64 {
	out := make([]float64, len(cfgs))
	if len(cfgs) == 0 {
		return out
	}
	in := o.info(q)
	sc := scratchPool.Get().(*batchScratch)
	if cap(sc.cls) < len(cfgs) {
		sc.cls = make([]inflightCall, len(cfgs))
	}
	cls := sc.cls[:cap(sc.cls)]
	var ps *planSpace
	shared := false
	for k, cfg := range cfgs {
		p := Pair{QID: in.qid, FP: fingerprint(cfg, in.rel)}
		sh := o.shardFor(p)
		// No read-locked pre-check here: in a batch most pairs are fresh
		// misses (the session routes seen pairs to the cache path), so
		// claimWith's single lock hold resolves hit, follower, and leader in
		// one lookup, registering leaders in the pooled slab.
		c, cl, leader, cached := sh.claimWith(p, &cls[k])
		if cached {
			o.cacheHits.Add(1)
			out[k] = c
			continue
		}
		if !leader {
			<-cl.done
			o.cacheHits.Add(1)
			out[k] = cl.c
			continue
		}
		if o.SimulatedLatency > 0 {
			time.Sleep(o.SimulatedLatency)
		}
		if ps == nil {
			ps = o.space(q, in)
			sc.acc = growFloats(sc.acc, len(ps.acc))
		}
		c = o.evalSpace(ps, cfg, sc.acc, nil)
		if o.publish(sh, p, cl, c) {
			shared = true
		}
		out[k] = c
	}
	if !shared {
		scratchPool.Put(sc)
	}
	return out
}
