// Package greedy implements the classic greedy configuration-enumeration
// algorithm (Algorithm 1, used by AutoAdmin and DTA) and its budget-aware
// variants from Section 4.2: vanilla greedy with first-come-first-serve
// budget allocation, two-phase greedy (Algorithm 2), and AutoAdmin greedy
// restricted to atomic configurations. The derived-cost-only core is also
// exported for reuse by MCTS's Best-Greedy extraction (Section 6.3).
package greedy

import (
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
)

// EvalMode controls how a greedy step obtains cost(q, C).
type EvalMode int

// Evaluation modes.
const (
	// EvalWhatIf uses what-if calls FCFS until the budget runs out, then
	// derived costs (Section 4.2.1).
	EvalWhatIf EvalMode = iota
	// EvalAtomic uses what-if calls only for atomic configurations
	// (singletons and single-join pairs); everything else is derived
	// (Section 4.2.2).
	EvalAtomic
	// EvalDerived uses derived costs exclusively, consuming no budget.
	EvalDerived
)

// Search runs the greedy algorithm (Algorithm 1) over the given queries and
// candidate ordinals, growing from the start configuration up to cardinality
// k, under the session's budget and storage constraints.
//
// It returns the best configuration found and its (derived) workload cost
// restricted to the given queries.
func Search(s *search.Session, queries, cands []int, start iset.Set, k int, mode EvalMode) (iset.Set, float64) {
	return searchWith(s, queries, cands, start, k, mode, atomicSet(s, mode))
}

// searchWith is Search with the session's atomic pairs already indexed
// (nil unless mode is EvalAtomic), so a caller searching many times builds
// the index once.
func searchWith(s *search.Session, queries, cands []int, start iset.Set, k int, mode EvalMode, atomic map[[2]int]bool) (iset.Set, float64) {
	cur := start.Clone()
	// dCur[j] = d(queries[j], cur): incremental derived costs.
	dCur := make([]float64, len(queries))
	curCost := 0.0
	for j, qi := range queries {
		dCur[j] = s.Derived.Query(qi, cur)
		curCost += dCur[j] * s.W.Queries[qi].EffectiveWeight()
	}

	// qpos maps a workload query index to its position in queries.
	var qpos map[int]int
	if len(queries) != len(s.W.Queries) {
		qpos = make(map[int]int, len(queries))
		for j, qi := range queries {
			qpos[qi] = j
		}
	}

	var eb search.Batch // reused across budgeted steps
	for cur.Len() < k {
		var bestOrd int
		var bestCost float64
		var bestD []float64
		if mode == EvalDerived || s.Exhausted() {
			// Fast path: only derived costs remain, and a candidate can only
			// improve queries whose recorded entries mention it.
			bestOrd, bestCost, bestD = derivedStep(s, queries, qpos, cands, cur, dCur, curCost)
		} else {
			bestOrd, bestCost, bestD = chargedStep(s, queries, cands, cur, dCur, curCost, mode, atomic, &eb)
		}
		if bestOrd < 0 {
			break
		}
		if bestD == nil {
			// Fast path returned only the winner; refresh touched positions
			// before growing the configuration.
			for _, qi := range s.Derived.TouchedQueries(bestOrd) {
				j := qi
				if qpos != nil {
					var ok bool
					if j, ok = qpos[qi]; !ok {
						continue
					}
				}
				dCur[j] = s.Derived.QueryWith(qi, cur, dCur[j], bestOrd)
			}
		} else {
			copy(dCur, bestD)
		}
		cur.Add(bestOrd)
		curCost = bestCost
		if s.Trace != nil && mode != EvalDerived {
			s.Trace.Step("greedy", bestOrd, curCost, s.Used())
		}
		// Early-stopping check at the step commit point, only for budgeted
		// workload-level search (per-query phase-one configs are not the
		// run's configuration, and derived-only search spends nothing to
		// save). After a stop, Exhausted() is true and the remaining steps
		// complete the configuration through the derived-only fast path. An
		// exhausted session skips the check: CheckStop has nothing left to
		// save once the budget is spent and returns unchanged once stopped
		// or cancelled, so the completion it would score is discarded.
		if mode != EvalDerived && len(queries) == len(s.W.Queries) && s.StopEpsilon > 0 && !s.Exhausted() {
			s.CheckStop(stopConfig(s, cands, cur, k))
		}
	}
	return cur, curCost
}

// stopConfig returns the configuration the run would hand back if the
// early-stopping rule fired at this commit point: the derived-only greedy
// completion of cur to k indexes over the same candidates. Checking the
// bound gap at the partial cur would overstate the remaining headroom — a
// stop flips Exhausted(), and the remaining steps then complete exactly
// this configuration through the derived-only fast path without spending
// another call. Callers gate on StopEpsilon > 0 so the completion's CPU
// cost is only paid when stopping is armed.
func stopConfig(s *search.Session, cands []int, cur iset.Set, k int) iset.Set {
	if cur.Len() >= k {
		return cur
	}
	cfg, _ := Search(s, allQueries(s), cands, cur, k, EvalDerived)
	return cfg
}

// chargedStep evaluates every admissible candidate extension according to
// mode through the session's batched charging pipeline: all
// what-if-eligible (query, cur∪{cand}) pairs of the step are reserved in
// candidate-major order (first come, first served), evaluated in per-query
// groups against interned plan spaces, and committed in the same order. It
// returns the best extension found.
//
// The accumulation pass after the commit is exact: for a pair (q, cur∪{a})
// the incremental bound QueryWith(q, cur, dCur, a) reads only recorded
// entries containing a, and the only same-step entry containing a is the
// pair's own record — other candidates' entries cur∪{b} never do — so
// computing the minima after all commits equals a pair-by-pair sweep.
func chargedStep(s *search.Session, queries []int, cands []int, cur iset.Set, dCur []float64, curCost float64, mode EvalMode, atomic map[[2]int]bool, b *search.Batch) (int, float64, []float64) {
	b.Reset()
	for _, ord := range cands {
		if cur.Has(ord) || !s.FitsStorage(cur, ord) {
			continue
		}
		cfg := cur.With(ord)
		if mode == EvalAtomic && !isAtomic(cfg, atomic) {
			continue
		}
		for _, qi := range queries {
			b.Add(qi, cfg)
		}
	}
	s.ReserveBatch(b)
	s.EvaluateReservedBatch(b, s.Workers)
	s.CommitReservedBatch(b)

	bestOrd := -1
	bestCost := curCost
	bestD := make([]float64, len(queries))
	candD := make([]float64, len(queries))
	k := 0
	for _, ord := range cands {
		if cur.Has(ord) || !s.FitsStorage(cur, ord) {
			continue
		}
		// Only the atomic mode needs the extended configuration here; the
		// what-if mode charged every extension.
		whatIf := mode == EvalWhatIf || isAtomic(cur.With(ord), atomic)
		total := 0.0
		for j, qi := range queries {
			var c float64
			if whatIf {
				c = b.Cost(k)
				k++
				// An over-budget pair falls back to a full derived scan;
				// tighten with the incremental bound, which is equivalent
				// here.
				d := s.Derived.QueryWith(qi, cur, dCur[j], ord)
				if d < c {
					c = d
				}
			} else {
				c = s.Derived.QueryWith(qi, cur, dCur[j], ord)
			}
			candD[j] = c
			total += c * s.W.Queries[qi].EffectiveWeight()
		}
		if total < bestCost {
			bestCost = total
			bestOrd = ord
			copy(bestD, candD)
		}
	}
	return bestOrd, bestCost, bestD
}

// derivedStep finds the best extension using derived costs only, touching
// for each candidate only the queries whose entries mention it. It returns
// bestD == nil; the caller refreshes dCur incrementally.
func derivedStep(s *search.Session, queries []int, qpos map[int]int, cands []int, cur iset.Set, dCur []float64, curCost float64) (int, float64, []float64) {
	bestOrd := -1
	bestCost := curCost
	for _, ord := range cands {
		if cur.Has(ord) || !s.FitsStorage(cur, ord) {
			continue
		}
		if c := curCost - candidateDelta(s, qpos, cur, dCur, ord); c < bestCost {
			bestCost = c
			bestOrd = ord
		}
	}
	return bestOrd, bestCost, nil
}

// candidateDelta is the derived-only greedy's per-candidate kernel: the
// weighted drop in derived workload cost from adding ord to cur, summed over
// TouchedQueries(ord) in recording order — the only queries whose derived
// cost ord can lower. dCur holds d(q, cur) by position; qpos maps a workload
// query index to that position and is nil when the positions are the
// workload's own indexes.
func candidateDelta(s *search.Session, qpos map[int]int, cur iset.Set, dCur []float64, ord int) float64 {
	delta := 0.0
	for _, qi := range s.Derived.TouchedQueries(ord) {
		j := qi
		if qpos != nil {
			var ok bool
			if j, ok = qpos[qi]; !ok {
				continue
			}
		}
		d := s.Derived.QueryWith(qi, cur, dCur[j], ord)
		delta += (dCur[j] - d) * s.W.Queries[qi].EffectiveWeight()
	}
	return delta
}

func atomicSet(s *search.Session, mode EvalMode) map[[2]int]bool {
	if mode != EvalAtomic {
		return nil
	}
	m := make(map[[2]int]bool, len(s.Cands.AtomicPairs))
	for _, p := range s.Cands.AtomicPairs {
		m[p] = true
	}
	return m
}

// isAtomic reports whether cfg is an atomic configuration: a singleton, or a
// single-join pair registered by candidate generation.
func isAtomic(cfg iset.Set, pairs map[[2]int]bool) bool {
	ords := cfg.Ordinals()
	switch len(ords) {
	case 0, 1:
		return true
	case 2:
		return pairs[[2]int{ords[0], ords[1]}]
	default:
		return false
	}
}

// allOrdinals returns 0..n-1.
func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func allQueries(s *search.Session) []int {
	return allOrdinals(len(s.W.Queries))
}

// Vanilla is the one-phase budget-aware greedy of Section 4.2.1: Algorithm 1
// at workload level with FCFS budget allocation (Figure 5(b)'s row-major
// layout).
type Vanilla struct{}

// Name implements search.Algorithm.
func (Vanilla) Name() string { return "Vanilla Greedy" }

// Enumerate implements search.Algorithm.
func (Vanilla) Enumerate(s *search.Session) iset.Set {
	cfg, _ := Search(s, allQueries(s), allOrdinals(s.NumCandidates()), iset.Set{}, s.K, EvalWhatIf)
	return cfg
}

// TwoPhase is Algorithm 2 with FCFS allocation (Figure 5(c)): each query is
// first tuned as a singleton workload over its own candidates; the union of
// the per-query winners is then re-tuned at workload level.
type TwoPhase struct{}

// Name implements search.Algorithm.
func (TwoPhase) Name() string { return "Two-phase Greedy" }

// Enumerate implements search.Algorithm.
func (TwoPhase) Enumerate(s *search.Session) iset.Set {
	// Phase one's per-query tuning plays the role Algorithm 4's priors play
	// for MCTS, so it is attributed to the priors phase in traces.
	s.Trace.SetPhase(trace.PhasePriors)
	refined := phaseOne(s, EvalWhatIf, nil)
	s.Trace.SetPhase(trace.PhaseSearch)
	cfg, _ := Search(s, allQueries(s), refined, iset.Set{}, s.K, EvalWhatIf)
	return cfg
}

// phaseOne tunes each query individually over the candidates generated for
// it and returns the union of the selected indexes, preserving
// first-selection order. atomic is atomicSet(s, mode).
func phaseOne(s *search.Session, mode EvalMode, atomic map[[2]int]bool) []int {
	var union []int
	seen := make(map[int]bool)
	for qi := range s.W.Queries {
		per, _ := searchWith(s, []int{qi}, s.Cands.PerQuery[qi], iset.Set{}, s.K, mode, atomic)
		for _, ord := range per.Ordinals() {
			if !seen[ord] {
				seen[ord] = true
				union = append(union, ord)
			}
		}
	}
	return union
}

// AutoAdmin is the two-phase greedy that spends what-if calls only on atomic
// configurations (Section 4.2.2, Figure 5(d)).
type AutoAdmin struct{}

// Name implements search.Algorithm.
func (AutoAdmin) Name() string { return "AutoAdmin Greedy" }

// Enumerate implements search.Algorithm.
func (AutoAdmin) Enumerate(s *search.Session) iset.Set {
	// Both phases test configurations against the same atomic pairs.
	atomic := atomicSet(s, EvalAtomic)
	s.Trace.SetPhase(trace.PhasePriors)
	refined := phaseOne(s, EvalAtomic, atomic)
	s.Trace.SetPhase(trace.PhaseSearch)
	cfg, _ := searchWith(s, allQueries(s), refined, iset.Set{}, s.K, EvalAtomic, atomic)
	return cfg
}

// DerivedOnly runs Algorithm 1 over the whole workload using derived costs
// exclusively — the Best-Greedy extraction primitive of Section 6.3. It is
// a one-shot Extractor; callers that extract repeatedly from a growing
// store keep the Extractor instead.
func DerivedOnly(s *search.Session, k int) (iset.Set, float64) {
	return NewExtractor(s, k).Run()
}
