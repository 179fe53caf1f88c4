package core

// Extended action-selection machinery beyond the paper's two main policies:
//
//   - Boltzmann exploration (Section 6.1.2): Pr(a|s) ∝ exp(Q̂(s,a)/τ). The
//     paper motivates its ε-greedy variant as a hyperparameter-free
//     alternative; the original is provided for the ablation. It is the
//     ε-greedy variant's draw (selectProportional) with every weight, the
//     priors' included, mapped through exp(·/τ).
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

// actionValue returns the (optionally RAVE-blended) estimate for action a
// with stat st at its node.
func (t *tuner) actionValue(a int, st *actionStat) float64 {
	q := st.q(t.opts.Policy != PolicyUCT)
	if t.opts.RAVE && t.rave != nil {
		return t.rave.blend(a, q, st.n)
	}
	return q
}
