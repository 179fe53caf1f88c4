// Package earlystop implements the Esc-style early-stopping checker for
// budget-aware index tuning: a sound, incremental bound on the best possible
// remaining improvement of a run in progress.
//
// The bound rests entirely on Assumption 1 (monotonicity): for every
// configuration C ⊆ U, cost(q, C) ≥ cost(q, U), so the probed universe cost
// floor(q) = c(q, U) held by the derived store lower-bounds the cost any
// future configuration can reach. The checker maintains, incrementally, the
// derived workload cost of the enumerator's current configuration and the
// weighted floor sum; their difference, normalized by the baseline workload
// cost, is the *bound gap* — an upper bound on how much improvement (as a
// fraction of baseline, Equation 4's units) any continuation of the run can
// still add. When the gap falls below the session's StopEpsilon, continuing
// cannot pay for itself and the enumerator is terminated, refunding the
// unspent budget.
//
// The package deliberately depends only on the cost layer: it can observe
// derived costs but can never perform what-if calls or touch budget
// accounting (the budgetguard analyzer enforces the same property on the
// stop-decision regions of its callers).
package earlystop

import (
	"math/bits"

	"indextune/internal/cost"
	"indextune/internal/iset"
	"indextune/internal/workload"
)

// Checker maintains the incremental state behind the bound-gap computation.
// It follows the single-owner convention: one goroutine (the enumerator's
// coordinator) calls Gap at commit points, so checks interleave
// deterministically with budget charges at any worker count.
type Checker struct {
	ds      *cost.DerivedStore
	weights []float64
	baseW   float64

	// tracked is the configuration dCur describes. It is owned by the
	// checker (grown in place on incremental updates, cloned on resets) and
	// never aliases a caller's set.
	tracked iset.Set
	dCur    []float64 // dCur[qi] = d(q_i, tracked)
	dSum    float64   // Σ w(q)·dCur[q]
	flo     []float64 // per-query floor contributions folded into floorSum
	floSum  float64   // Σ w(q)·flo[q]
	// processed[qi] counts the store entries of q_i already folded into
	// dCur, so each check visits only entries recorded since the last one.
	processed []int
	scratch   []int
}

// New builds a checker over the session's derived store and workload. The
// tracked configuration starts empty, so the initial gap is the full
// improvement headroom.
func New(ds *cost.DerivedStore, w *workload.Workload) *Checker {
	nq := len(w.Queries)
	c := &Checker{
		ds:        ds,
		weights:   make([]float64, nq),
		dCur:      make([]float64, nq),
		flo:       make([]float64, nq),
		processed: make([]int, nq),
	}
	for qi, q := range w.Queries {
		c.weights[qi] = q.EffectiveWeight()
	}
	c.baseW = ds.BaseWorkload()
	ds.QueryAll(c.tracked, c.dCur)
	for qi := range c.dCur {
		c.dSum += c.weights[qi] * c.dCur[qi]
		c.processed[qi] = ds.Entries(qi)
	}
	return c
}

// Gap returns the bound gap for the run whose current configuration is cfg:
// an upper bound, in improvement-fraction units, on how much more workload
// improvement any continuation can achieve beyond d(W, cfg). Queries without
// a probed floor contribute their full remaining cost as headroom, so a
// partially probed (or unprobed) store only ever makes the gap conservative.
//
// Amortized cost per call is O(new entries + changed ordinals); the steady
// state — same configuration, no new recordings — allocates nothing.
func (c *Checker) Gap(cfg iset.Set) float64 {
	// Fold in floors and entries recorded since the last check. A new entry
	// can only lower d for the configuration it is a subset of; entries not
	// under tracked are left for the recompute paths below.
	for qi := range c.dCur {
		if f, ok := c.ds.Floor(qi); ok && f != c.flo[qi] {
			c.floSum += c.weights[qi] * (f - c.flo[qi])
			c.flo[qi] = f
		}
		n := c.ds.Entries(qi)
		for pos := c.processed[qi]; pos < n; pos++ {
			set, ec := c.ds.EntryAt(qi, pos)
			if ec < c.dCur[qi] && set.SubsetOfSet(c.tracked) {
				c.dSum += c.weights[qi] * (ec - c.dCur[qi])
				c.dCur[qi] = ec
			}
		}
		c.processed[qi] = n
	}

	if !cfg.Equal(c.tracked) {
		if c.tracked.SubsetOf(cfg) {
			// The configuration grew (the common enumerator move): fold in
			// each added ordinal, touching only the queries whose entries
			// mention it.
			c.scratch = c.scratch[:0]
			for wi := 0; wi < cfg.NumWords(); wi++ {
				diff := cfg.Word(wi) &^ c.tracked.Word(wi)
				for diff != 0 {
					b := bits.TrailingZeros64(diff)
					c.scratch = append(c.scratch, wi*64+b)
					diff &= diff - 1
				}
			}
			for _, ord := range c.scratch {
				for _, t := range c.ds.TouchedQueries(ord) {
					qi := t.Query
					d := c.ds.QueryWithTouch(t, c.tracked, c.dCur[qi], ord)
					if d != c.dCur[qi] {
						c.dSum += c.weights[qi] * (d - c.dCur[qi])
						c.dCur[qi] = d
					}
				}
				c.tracked.Add(ord)
			}
		} else {
			// Arbitrary move (an MCTS best-config switch): full recompute.
			c.tracked = cfg.Clone()
			c.dSum = 0
			c.ds.QueryAll(cfg, c.dCur)
			for qi := range c.dCur {
				c.dSum += c.weights[qi] * c.dCur[qi]
			}
		}
	}

	if c.baseW <= 0 {
		return 0
	}
	gap := (c.dSum - c.floSum) / c.baseW
	if gap < 0 {
		// Floating-point drift in the incremental sums; the true gap is
		// non-negative by monotonicity.
		gap = 0
	}
	return gap
}
