package core

// Extended action-selection machinery beyond the paper's two main policies:
//
//   - Boltzmann exploration (Section 6.1.2): Pr(a|s) ∝ exp(Q̂(s,a)/τ). The
//     paper motivates its ε-greedy variant as a hyperparameter-free
//     alternative; the original is provided for the ablation.
//   - Uniform-random selection: the paper notes that even uniform action
//     selection preserves MCTS convergence in the long run [48].
//   - RAVE (rapid action value estimation, Gelly & Silver 2011): Section 8
//     suggests it as a further optimization of the update policy. Global
//     all-moves-as-first statistics are blended into the per-node estimates
//     with the usual β schedule.

import "math"

// Additional action-selection policies (see Policy).
const (
	// PolicyBoltzmann samples actions with probability ∝ exp(Q̂(s,a)/τ).
	PolicyBoltzmann Policy = iota + 2
	// PolicyUniform samples uniformly among admissible actions.
	PolicyUniform
)

// raveStats accumulates all-moves-as-first statistics per candidate.
type raveStats struct {
	n   []int
	sum []float64
}

func newRaveStats(n int) *raveStats {
	return &raveStats{n: make([]int, n), sum: make([]float64, n)}
}

// update credits every index of the episode's final configuration.
func (r *raveStats) update(ords []int, eta float64) {
	for _, a := range ords {
		r.n[a]++
		r.sum[a] += eta
	}
}

// value returns the AMAF estimate for action a (0 when unseen).
func (r *raveStats) value(a int) float64 {
	if r.n[a] == 0 {
		return 0
	}
	return r.sum[a] / float64(r.n[a])
}

// raveK is the equivalence parameter of the β schedule: with k episodes of
// evidence, node statistics and AMAF statistics weigh equally.
const raveK = 512

// blend mixes the node estimate with the AMAF estimate by
// β = sqrt(k / (3·n + k)).
func (r *raveStats) blend(a int, nodeQ float64, nodeN int) float64 {
	beta := math.Sqrt(raveK / (3*float64(nodeN) + raveK))
	return (1-beta)*nodeQ + beta*r.value(a)
}

// boltzmannTemperature returns the configured τ (default 0.1).
func (o Options) boltzmannTemperature() float64 {
	if o.Temperature <= 0 {
		return 0.1
	}
	return o.Temperature
}

// selectBoltzmann samples an action with probability proportional to
// exp(Q̂(s,a)/τ). Actions without node statistics fall back to their prior
// (as in the ε-greedy variant), sampled via the precomputed exp-prior
// prefix.
func (t *tuner) selectBoltzmann(n *node) int {
	tau := t.opts.boltzmannTemperature()
	excluded := func(ord int) bool {
		return n.cfg.Has(ord) || !t.s.FitsStorage(n.cfg, ord) || n.taken(ord)
	}
	// Explicit stats mass, and the residual mass from the exp-prior
	// prefix corrected for exclusions: the configuration's, then the
	// stats'. One pass over the stats feeds both sums, each in its own
	// order.
	sumStats := 0.0
	rest := t.expPriorTotal
	var buf [cfgBuf]int32
	for _, ord := range n.cfg.AppendSmall(buf[:0]) {
		rest -= t.expPriorWeight(int(ord))
	}
	for i, a := range n.statKeys {
		if !n.cfg.Has(a) {
			sumStats += math.Exp(t.actionValue(a, &n.stats[i]) / tau)
			rest -= t.expPriorWeight(a)
		}
	}
	if rest < 0 {
		rest = 0
	}
	total := sumStats + rest
	if total <= 0 {
		if a := t.sampleUniform(excluded); a >= 0 {
			return t.claim(n, a)
		}
		return -1
	}
	x := t.rng.Float64() * total
	if x < sumStats {
		for i, a := range n.statKeys {
			if n.cfg.Has(a) {
				continue
			}
			x -= math.Exp(t.actionValue(a, &n.stats[i]) / tau)
			if x <= 0 {
				return a
			}
		}
	}
	if a := t.sampleExpPrior(excluded); a >= 0 {
		return t.claim(n, a)
	}
	if a := t.sampleUniform(excluded); a >= 0 {
		return t.claim(n, a)
	}
	if len(n.statKeys) > 0 {
		return n.statKeys[t.rng.Intn(len(n.statKeys))]
	}
	return -1
}

// selectUniformPolicy samples uniformly among admissible actions.
func (t *tuner) selectUniformPolicy(n *node) int {
	a := t.sampleUniform(func(ord int) bool {
		return n.cfg.Has(ord) || !t.s.FitsStorage(n.cfg, ord)
	})
	if a < 0 {
		return -1
	}
	return t.claim(n, a)
}

// actionValue returns the (optionally RAVE-blended) estimate for action a
// with stat st at its node.
func (t *tuner) actionValue(a int, st *actionStat) float64 {
	q := st.q(t.opts.Policy != PolicyUCT)
	if t.opts.RAVE && t.rave != nil {
		return t.rave.blend(a, q, st.n)
	}
	return q
}

// buildExpPriorPrefix precomputes cumulative sums of exp(prior/τ) for
// Boltzmann sampling.
func (t *tuner) buildExpPriorPrefix() {
	tau := t.opts.boltzmannTemperature()
	t.expPriorPrefix = make([]float64, len(t.priors)+1)
	for i, p := range t.priors {
		t.expPriorPrefix[i+1] = t.expPriorPrefix[i] + math.Exp(p/tau)
	}
	t.expPriorTotal = t.expPriorPrefix[len(t.priors)]
}

func (t *tuner) expPriorWeight(ord int) float64 {
	return t.expPriorPrefix[ord+1] - t.expPriorPrefix[ord]
}

// sampleExpPrior draws an ordinal ∝ exp(prior/τ), rejecting excluded ones.
func (t *tuner) sampleExpPrior(excluded func(int) bool) int {
	if t.expPriorTotal <= 0 {
		return -1
	}
	for try := 0; try < 64; try++ {
		x := t.rng.Float64() * t.expPriorTotal
		ord := searchPrefix(t.expPriorPrefix, x)
		if ord >= 0 && !excluded(ord) {
			return ord
		}
	}
	return -1
}

// searchPrefix maps a mass coordinate into the owning interval of a
// cumulative-sum array (prefix[0] = 0).
func searchPrefix(prefix []float64, x float64) int {
	lo, hi := 0, len(prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(prefix)-1 {
		return len(prefix) - 2
	}
	return lo
}
