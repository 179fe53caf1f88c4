// Package earlystop implements the Esc-style early-stopping checker for
// budget-aware index tuning: a sound bound on the best possible remaining
// improvement of a run in progress.
//
// The bound rests entirely on Assumption 1 (monotonicity): for every
// configuration C ⊆ U, cost(q, C) ≥ cost(q, U), so the probed universe cost
// floor(q) = c(q, U) held by the derived store lower-bounds the cost any
// future configuration can reach. At each check the checker reads, fresh
// from the store, the derived workload cost of the enumerator's current
// configuration and the weighted floor sum; their difference, normalized by
// the baseline workload cost, is the *bound gap* — an upper bound on how
// much improvement (as a fraction of baseline, Equation 4's units) any
// continuation of the run can still add. When the gap falls below the
// session's StopEpsilon, continuing cannot pay for itself and the enumerator
// is terminated, refunding the unspent budget.
//
// The package deliberately depends only on the cost layer: it can observe
// derived costs but can never perform what-if calls or touch budget
// accounting (the budgetguard analyzer enforces the same property on the
// stop-decision regions of its callers).
package earlystop

import (
	"indextune/internal/cost"
	"indextune/internal/iset"
	"indextune/internal/workload"
)

// Checker computes the bound gap from the derived store as it is at each
// call, keeping nothing derived from the store between calls. It follows
// the single-owner convention: one goroutine (the enumerator's coordinator)
// calls Gap at commit points, so checks interleave deterministically with
// budget charges at any worker count.
type Checker struct {
	ds      *cost.DerivedStore
	weights []float64
	baseW   float64
	d       []float64 // scratch: d(q, cfg) per query
}

// New builds a checker over the session's derived store and workload.
func New(ds *cost.DerivedStore, w *workload.Workload) *Checker {
	c := &Checker{
		ds:      ds,
		weights: make([]float64, len(w.Queries)),
		baseW:   ds.BaseWorkload(),
		d:       make([]float64, len(w.Queries)),
	}
	for qi, q := range w.Queries {
		c.weights[qi] = q.EffectiveWeight()
	}
	return c
}

// Gap returns the bound gap for the run whose current configuration is cfg:
// an upper bound, in improvement-fraction units, on how much more workload
// improvement any continuation can achieve beyond d(W, cfg): (Σ w·d(q, cfg)
// − Σ w·floor(q)) / cost(W, ∅), each sum in query order. Queries without a
// probed floor contribute their full remaining cost as headroom, so a
// partially probed (or unprobed) store only ever makes the gap
// conservative. Gap allocates nothing.
func (c *Checker) Gap(cfg iset.Set) float64 {
	if c.baseW <= 0 {
		return 0
	}
	c.ds.QueryAll(cfg, c.d)
	dSum, floSum := 0.0, 0.0
	for qi, d := range c.d {
		dSum += c.weights[qi] * d
		if f, ok := c.ds.Floor(qi); ok {
			floSum += c.weights[qi] * f
		}
	}
	// Recorded costs of nested configurations can invert by floating-point
	// noise; the true gap is non-negative by monotonicity.
	return max(0, (dSum-floSum)/c.baseW)
}
