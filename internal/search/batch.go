package search

// Batched budget accounting: ReserveBatch / EvaluateReservedBatch /
// CommitReservedBatch process many (query, configuration) pairs through the
// session's one charging protocol, in three phases that each take the
// session mutex once (the per-pair reserve decisions), run the optimizer
// without it (evaluation, grouped per query through the plan-space batch
// path), and take it once more (the per-pair commit bookkeeping and trace
// emission, in pair order). The scalar entry points (Session.WhatIf, the
// floor probes, Reserve/CommitReserved) run the same per-pair steps —
// reserve and settle in session.go — for a single pair: a batch of size one
// is the scalar path.
//
// Exactness contract: a batch over pairs p_0..p_{n-1} leaves the session in
// the same state — budget used, the seen set, cache-hit and bound-hit
// counters, layout trace, derived store, virtual clock, and trace event
// stream — as n sequential Session.WhatIf calls for the same pairs, and
// returns the same costs, PROVIDED no pair's configuration is a subset or
// superset of an earlier same-query pair's configuration in the batch.
// Under that precondition every reserve-time decision (seen membership,
// derived-bound interception, budget exhaustion) is independent of the
// commits of earlier pairs in the batch: Bounds(q, C) reads only q's
// recorded entries comparable to C, and the only entries a batch records for
// q are the batch's own charged pairs, none comparable to C. All wired
// consumers satisfy the precondition structurally — greedy step extensions
// cur∪{a} vs cur∪{b} are incomparable, and Algorithm 4's prior singletons
// are incomparable.
//
// Trace events are not emitted at reserve time; CommitReservedBatch emits
// each pair's events in pair order — Reserve+Commit for charged pairs (with
// the budget counter recorded at that pair's reserve), CacheHit for repeats,
// DerivedBound for interceptions, DerivedFallback for over-budget pairs — so
// the batched stream is literally the sequential stream.

import (
	"sync"

	"indextune/internal/iset"
	"indextune/internal/whatif"
)

// BatchOutcome is the reserve-time classification of one pair. It extends
// Reservation with the bound-interception case.
type BatchOutcome uint8

// Batch pair outcomes.
const (
	// BatchCharged: unseen pair, one budget unit charged; evaluation and
	// commit follow.
	BatchCharged BatchOutcome = iota
	// BatchCached: pair already seen by this session; evaluated for free.
	BatchCached
	// BatchBound: unseen pair answered from derived cost bounds, budget-free.
	BatchBound
	// BatchExhausted: unseen pair and no budget left (or the session
	// stopped); answered from the derived cost.
	BatchExhausted
)

// request is one (query, configuration) pair in flight through the charging
// protocol: reserve decides its outcome, evaluation fills cost for charged
// and cached pairs, and settle completes it.
type request struct {
	qi     int
	cfg    iset.Set
	key    whatif.Pair // seen-set identity (pairFor)
	out    BatchOutcome
	cost   float64 // bound midpoint, evaluated cost, or derived fallback
	gap    float64 // relative bound gap of a BatchBound answer
	usedAt int     // budget counter right after a BatchCharged reservation
	floor  bool    // a floor probe: commit records the query's floor, not an entry
}

// Batch is a reusable ordered collection of (query, configuration) pairs
// flowing through ReserveBatch → EvaluateReservedBatch →
// CommitReservedBatch. The zero value is ready to use; Reset keeps the
// backing storage so steady-state batching does not allocate per round.
type Batch struct {
	// StopOnExhausted truncates the batch at the first over-budget pair
	// (keeping that pair, dropping the rest), reproducing consumers that
	// abandon their sweep on the first failed what-if call (Algorithm 4's
	// prior phase).
	StopOnExhausted bool

	reqs []request

	// Per-query evaluation groups, rebuilt by EvaluateReservedBatch.
	groups []batchGroup
	qi2g   []int // query index -> group index + 1; 0 = none (sparse reset)
}

// batchGroup collects the batch positions of one query's evaluable pairs.
type batchGroup struct {
	qi   int
	idx  []int
	cfgs []iset.Set
}

// Reset empties the batch for reuse, keeping capacity.
func (b *Batch) Reset() { b.reqs = b.reqs[:0] }

// Add appends the pair (q_i, cfg) to the batch.
func (b *Batch) Add(qi int, cfg iset.Set) {
	b.reqs = append(b.reqs, request{qi: qi, cfg: cfg})
}

// Len returns the number of pairs in the batch (after ReserveBatch it may be
// smaller than the number added, if StopOnExhausted truncated it).
func (b *Batch) Len() int { return len(b.reqs) }

// Outcome returns the reserve-time outcome of pair i (valid after
// ReserveBatch).
func (b *Batch) Outcome(i int) BatchOutcome { return b.reqs[i].out }

// Cost returns the cost of pair i: bound midpoints after ReserveBatch,
// evaluated costs after EvaluateReservedBatch, and derived fallbacks after
// CommitReservedBatch.
func (b *Batch) Cost(i int) float64 { return b.reqs[i].cost }

// ReserveBatch performs the accounting half of every pair in order, under
// one mutex hold: the session's per-pair decision (seen / derived-bound /
// budget), with trace emission deferred to CommitReservedBatch. Every
// reserved batch owes one CommitReservedBatch.
func (s *Session) ReserveBatch(b *Batch) {
	for i := range b.reqs {
		r := &b.reqs[i]
		r.key = s.pairFor(r.qi, r.cfg)
		r.cost, r.gap = 0, 0
	}
	s.mu.Lock()
	for i := range b.reqs {
		s.reserve(&b.reqs[i], true)
		if b.reqs[i].out == BatchExhausted && b.StopOnExhausted {
			b.reqs = b.reqs[:i+1]
			break
		}
	}
	s.mu.Unlock()
}

// EvaluateReservedBatch computes the what-if costs of the batch's evaluable
// pairs (charged and cached), grouping them by query so each group walks the
// query's plan space once through the optimizer's batch path. Groups are
// fanned across up to workers goroutines; like EvaluateReserved it performs
// no session bookkeeping, so the fan-out order cannot affect results.
func (s *Session) EvaluateReservedBatch(b *Batch, workers int) {
	if cap(b.qi2g) < len(s.W.Queries) {
		b.qi2g = make([]int, len(s.W.Queries))
	}
	qi2g := b.qi2g[:len(s.W.Queries)]
	b.groups = b.groups[:0]
	for i := range b.reqs {
		r := &b.reqs[i]
		if r.out != BatchCharged && r.out != BatchCached {
			continue
		}
		g := qi2g[r.qi] - 1
		if g < 0 || g >= len(b.groups) || b.groups[g].qi != r.qi {
			// Reuse a spare group and its truncated idx/cfgs storage when
			// capacity allows.
			g = len(b.groups)
			if g < cap(b.groups) {
				b.groups = b.groups[:g+1]
			} else {
				b.groups = append(b.groups, batchGroup{})
			}
			b.groups[g].qi = r.qi
			qi2g[r.qi] = g + 1
		}
		gr := &b.groups[g]
		gr.idx = append(gr.idx, i)
		gr.cfgs = append(gr.cfgs, r.cfg)
	}
	// Sparse reset: only the touched entries are cleared, and group slices
	// are truncated for reuse after their costs scatter back.
	defer func() {
		for g := range b.groups {
			qi2g[b.groups[g].qi] = 0
			b.groups[g].idx = b.groups[g].idx[:0]
			b.groups[g].cfgs = b.groups[g].cfgs[:0]
		}
	}()

	if workers <= 1 || len(b.groups) < 2 {
		for g := range b.groups {
			b.eval(s, &b.groups[g])
		}
		return
	}
	if workers > len(b.groups) {
		workers = len(b.groups)
	}
	var wg sync.WaitGroup
	chunk := (len(b.groups) + workers - 1) / workers
	for lo := 0; lo < len(b.groups); lo += chunk {
		hi := lo + chunk
		if hi > len(b.groups) {
			hi = len(b.groups)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for g := lo; g < hi; g++ {
				b.eval(s, &b.groups[g])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// eval scores one query group through the optimizer's batch path and
// scatters the costs back to the group's pairs. It is a method rather than a
// closure so the single-goroutine path allocates nothing of its own.
func (b *Batch) eval(s *Session, g *batchGroup) {
	costs := s.Opt.WhatIfBatch(s.W.Queries[g.qi], g.cfgs)
	for k, i := range g.idx {
		b.reqs[i].cost = costs[k]
	}
}

// CommitReservedBatch completes the batch under one mutex hold, settling
// each pair in pair order: charged pairs are recorded in the layout trace
// and the derived store and charged virtual time; exhausted pairs fall back
// to the derived cost computed at their position, after earlier pairs'
// records, exactly as the sequential interleaving would; every pair's trace
// events are emitted here.
func (s *Session) CommitReservedBatch(b *Batch) {
	s.mu.Lock()
	for i := range b.reqs {
		s.settle(&b.reqs[i])
	}
	s.mu.Unlock()
}
