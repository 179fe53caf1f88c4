package whatif

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/workload"
)

// This file implements the cost model proper. Every cost — WhatIf and
// WhatIfBatch misses, PeekCost, BaseCost and Plan — is scored
// against a plan space of the query: its skeleton, built once per interned
// query, plus a table of index alternatives grouped by candidate ordinal —
// every relevant candidate's in the interned full space, only a
// configuration's own in the restricted space of a one-shot peek.
// evalSpace scores a configuration by applying the alternatives of its own
// members and selecting per-operator minima.
//
// Why the split is sound: the baseline access facts (selectivity, output
// rows) come from table statistics and the ref's own predicates only, never
// from the configuration, so pipelineOrder (which reads only sel/rowsOut),
// joinColsTo, and the curRows/fetched cardinality chain are the same for
// every configuration of one query. The configuration enters the model in
// exactly two places, both minima over admitted alternatives: the per-ref
// access choice and the per-join INL probe choice. Neither alternative's
// cost depends on the configuration either, so both are tabulated once and
// evalSpace replays the minima over the configuration's members.

// refAccess is the per-ref part of the skeleton: the configuration-free
// baseline (heap scan, or the missing-table unit cost), the filtered output
// rows, the sort penalty a path not ordered on the ref's sort columns pays,
// and the pipeline step that joins the ref in (-1 for the seed and for a
// standalone ref, which no index can probe).
type refAccess struct {
	baseCost float64
	rowsOut  float64
	sortCost float64
	step     int
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
	innerCols  []string // the ref's columns joining it to the pipeline
}

// alternative is one index alternative of a plan operator, at slot i <
// len(acc) the access path of ref i and at len(acc)+si the INL probe of
// step si, with its full operator cost.
type alternative struct {
	slot int32
	cost float64
}

// planSpace is the configuration-independent plan structure of one query:
// the pipeline seed, the join steps in pipeline order, the per-ref access
// facts and the final output cardinality — the skeleton — plus, except in
// the skeleton itself, the ordinals it tabulates (rel: the query's
// relevance bitmap in a full space, rel(q) ∩ cfg in a restricted one) and
// their index alternatives in CSR form: the alternatives of rel's member of
// rank r are alts[off[r]:off[r+1]]. rank[w] counts rel's members below word
// w, and rank[len(rel)] counts them all. The skeleton holds no rel or rank:
// it needs no relevance, and scores only configurations that miss it.
type planSpace struct {
	empty     bool
	seed      int // order[0]
	acc       []refAccess
	steps     []joinStep
	finalRows float64
	rel       []uint64
	rank      []int32
	off       []int32
	alts      []alternative
	// size is the approximate resident footprint of the alternative table,
	// charged against the optimizer's plan-space budget at interning.
	size int64
}

// sizeBytes estimates the resident footprint of a plan space's alternative
// table: its header plus the offsets and alternatives. The skeleton it
// shares is per-query state and is not counted, nor are rel (the query's
// relevance bitmap) and rank, whose widths are fixed by the universe.
func (ps *planSpace) sizeBytes() int64 {
	return 96 + 4*int64(len(ps.off)) + 16*int64(len(ps.alts))
}

// batchScratch is the reusable per-call arena of WhatIfBatch: the
// per-operator minima for the configuration currently being scored, plus a
// slab of inflight registrations so leader claims allocate nothing. The slab
// returns to the pool only when no pair attracted a concurrent waiter — a
// waiter may still be reading its slot after the batch completes.
type batchScratch struct {
	win []choice
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
		ps = o.buildSpace(q, in, o.relevance(q, in))
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

// skeleton returns q's plan space without alternatives, building it once:
// baseline access facts, pipeline order, each step's join columns and the
// cardinality chain. It scores exactly cost(q, ∅).
func (o *Optimizer) skeleton(q *workload.Query, in *queryInfo) *planSpace {
	in.skelOnce.Do(func() { in.skel = o.buildSkeleton(q) })
	return in.skel
}

func (o *Optimizer) buildSkeleton(q *workload.Query) *planSpace {
	n := len(q.Refs)
	if n == 0 {
		return &planSpace{empty: true}
	}
	access := make([]accessChoice, n)
	ps := &planSpace{acc: make([]refAccess, n)}
	for i := range q.Refs {
		access[i] = o.baseAccess(&q.Refs[i])
		ps.acc[i] = refAccess{baseCost: access[i].cost, rowsOut: access[i].rowsOut, sortCost: access[i].sortCost, step: -1}
	}

	order := o.pipelineOrder(q, access)
	ps.seed = order[0]
	joined := make([]bool, n)
	joined[order[0]] = true
	curRows := access[order[0]].rowsOut
	for _, i := range order[1:] {
		r := &q.Refs[i]
		st := joinStep{ref: i, innerCols: joinColsTo(q, joined, i)}
		joined[i] = true
		if len(st.innerCols) == 0 {
			// Disconnected ref (independent subquery): accessed on its own,
			// producing its own output rows.
			st.standalone = true
			ps.steps = append(ps.steps, st)
			continue
		}
		st.curRows = curRows
		st.fetched = joinOutputRows(o.DB, curRows, r, st.innerCols[0], access[i].rowsOut)
		t := o.DB.Table(r.Table)
		st.hasTable = t != nil
		if t != nil {
			st.pages = t.Pages()
		}
		curRows = st.fetched
		ps.acc[i].step = len(ps.steps)
		ps.steps = append(ps.steps, st)
	}
	ps.finalRows = curRows
	return ps
}

// buildSpace returns q's skeleton extended with the alternatives of every
// member of rel, ranked over rel. With q's relevance bitmap it is the full
// plan space — cost-preserving by construction of the relevance projection;
// with rel(q) ∩ C it scores exactly the configurations whose relevant
// members all lie in C.
func (o *Optimizer) buildSpace(q *workload.Query, in *queryInfo, rel []uint64) *planSpace {
	skel := o.skeleton(q, in)
	if skel.empty {
		return skel
	}
	ps := *skel
	ps.rel = rel
	ps.rank = make([]int32, len(rel)+1)
	for wi, w := range rel {
		ps.rank[wi+1] = ps.rank[wi] + int32(bits.OnesCount64(w))
	}
	ps.off = make([]int32, ps.rank[len(rel)]+1)
	r := 0
	for wi, w := range rel {
		for ; w != 0; w &= w - 1 {
			ps.off[r] = int32(len(ps.alts))
			ps.alts = o.appendAlternatives(ps.alts, q, &ps, wi*64+bits.TrailingZeros64(w))
			r++
		}
	}
	ps.off[r] = int32(len(ps.alts))
	return &ps
}

// rankOf returns the rank in rel of the relevant ordinal wi*64+b.
func (ps *planSpace) rankOf(wi, b int) int {
	return int(ps.rank[wi]) + bits.OnesCount64(ps.rel[wi]&(1<<uint(b)-1))
}

// appendAlternatives appends the alternatives candidate ord offers q's plan
// operators: per ref of its table, the index access path when the index
// offers one (costed with the sort penalty when its key does not deliver
// the ref's order), and the index-nested-loop probe when the ref is joined
// in on the index's leading key column.
func (o *Optimizer) appendAlternatives(alts []alternative, q *workload.Query, ps *planSpace, ord int) []alternative {
	ix := &o.Candidates[ord]
	t := o.DB.Table(ix.Table)
	for i := range q.Refs {
		r := &q.Refs[i]
		if r.Table != ix.Table {
			continue
		}
		ra := &ps.acc[i]
		if t != nil {
			if c, ok, ordered := o.indexAccessCost(t, r, ix, ra.rowsOut); ok {
				if len(r.SortCols) > 0 && !ordered {
					c += ra.sortCost
				}
				alts = append(alts, alternative{slot: int32(i), cost: c})
			}
		}
		if ra.step < 0 {
			continue
		}
		st := &ps.steps[ra.step]
		if !containsCol(st.innerCols, ix.Key[0]) {
			continue
		}
		c := st.curRows*inlDescend + cpuPerRow*st.fetched
		if ix.Covers(r.Need) {
			// Fetched rows stream off the index leaves.
			c += st.fetched * float64(ix.EntryWidth(o.DB)) / schema.PageSize
		} else if st.hasTable {
			// Random heap lookups, capped at re-reading the table.
			lookups := st.fetched
			if lookups > st.pages {
				lookups = st.pages
			}
			c += lookups
		}
		alts = append(alts, alternative{slot: int32(len(ps.acc) + ra.step), cost: c})
	}
	return alts
}

// choice is the winning alternative of one plan operator: the candidate
// ordinal (-1 for the baseline access path or a hash join) and the
// operator's cost.
type choice struct {
	ord  int
	cost float64
}

// evalSpace scores cfg against the plan space, using win (len(ps.acc) +
// len(ps.steps)) as scratch. On return win holds the winner of every
// operator — per ref the access path and its cost, then per step the join
// alternative and its join cost — which Plan reads.
//
// ps must tabulate every member of cfg ∩ rel: the full space does, a
// restricted space does for the configuration it was built for, and the
// skeleton scores only configurations that miss rel.
//
// The minima are exact: the alternatives of cfg's members are applied in
// ascending ordinal order, so each operator sees its admitted alternatives
// in the same relevance order a per-operator scan would, and a strict <
// keeps the same first minimum.
func (o *Optimizer) evalSpace(ps *planSpace, cfg iset.Set, win []choice) float64 {
	if ps.empty {
		return 0
	}
	nAcc := len(ps.acc)
	for i := range ps.acc {
		win[i] = choice{-1, ps.acc[i].baseCost}
	}
	for si := range ps.steps {
		win[nAcc+si] = choice{-1, math.Inf(1)}
	}
	n := cfg.NumWords()
	if n > len(ps.rel) {
		n = len(ps.rel)
	}
	for wi := 0; wi < n; wi++ {
		for w := cfg.Word(wi) & ps.rel[wi]; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			r := ps.rankOf(wi, b)
			for _, a := range ps.alts[ps.off[r]:ps.off[r+1]] {
				if a.cost < win[a.slot].cost {
					win[a.slot] = choice{wi*64 + b, a.cost}
				}
			}
		}
	}

	total := win[ps.seed].cost
	for si := range ps.steps {
		st := &ps.steps[si]
		i := st.ref
		acc := win[i].cost
		if st.standalone {
			total += acc + cpuPerRow*ps.acc[i].rowsOut
			win[nAcc+si] = choice{-1, acc}
			continue
		}
		// Hash join: access the inner by its best path, then build+probe;
		// the index-nested-loop probe, when one won, replaces the inner
		// access.
		join := choice{-1, acc + hashPerRow*(st.curRows+ps.acc[i].rowsOut)}
		if inl := win[nAcc+si]; inl.cost < join.cost {
			join = inl
		}
		total += join.cost
		win[nAcc+si] = join
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
	sc.win = growChoices(sc.win, len(ps.acc)+len(ps.steps))
	c := o.evalSpace(ps, cfg, sc.win)
	scratchPool.Put(sc)
	return c
}

// peekRel returns what a one-shot evaluation of cfg (PeekCost, Plan) keys
// and scores by: q's interned plan space and its relevance bitmap when the
// space is resident, else no space and rel(q) ∩ cfg, computed by testing
// cfg's members alone, so the oracle evaluation of a final configuration
// neither builds the relevance of queries the search never charged nor
// tabulates more than cfg's alternatives. fingerprint(cfg, rel(q) ∩ cfg)
// equals fingerprint(cfg, rel(q)), so every answer keys the same cache
// entry.
func (o *Optimizer) peekRel(q *workload.Query, in *queryInfo, cfg iset.Set) (*planSpace, []uint64) {
	if ps := in.space.Load(); ps != nil {
		return ps, ps.rel
	}
	return nil, o.relevanceOf(q, &cfg)
}

// restrictedSpace returns a plan space built without interning that scores
// the configurations whose relevant members lie in rel (peekRel's rel(q) ∩
// cfg): the skeleton extended with rel's alternatives, or the skeleton
// itself when rel is empty.
func (o *Optimizer) restrictedSpace(q *workload.Query, in *queryInfo, rel []uint64) *planSpace {
	for _, w := range rel {
		if w != 0 {
			return o.buildSpace(q, in, rel)
		}
	}
	return o.skeleton(q, in)
}

// growChoices returns s resized to n, reusing its capacity.
func growChoices(s []choice, n int) []choice {
	if cap(s) < n {
		return make([]choice, n)
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
	rel := o.relevance(q, in)
	sc := scratchPool.Get().(*batchScratch)
	if cap(sc.cls) < len(cfgs) {
		sc.cls = make([]inflightCall, len(cfgs))
	}
	cls := sc.cls[:cap(sc.cls)]
	var ps *planSpace
	shared := false
	for k, cfg := range cfgs {
		p := Pair{QID: in.qid, FP: fingerprint(cfg, rel)}
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
			sc.win = growChoices(sc.win, len(ps.acc)+len(ps.steps))
		}
		c = o.evalSpace(ps, cfg, sc.win)
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
