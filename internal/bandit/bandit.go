// Package bandit implements the "DBA bandits" baseline of Section 7.2.1: a
// contextual combinatorial bandit (C²UCB-style linear bandit over index
// feature vectors) adapted to the paper's static-workload, budget-aware
// protocol. Execution is broken into rounds; in each round one what-if call
// is made per workload query under the configuration selected by the bandit,
// and the observed costs produce per-arm rewards that refine a ridge-
// regression reward model.
//
// As in the paper's experiments, featurization lets the bandit land on a
// reasonable initial configuration quickly, after which refinement is slow
// relative to MCTS (Figures 14 and 21).
package bandit

import (
	"math"

	"indextune/internal/iset"
	"indextune/internal/search"
)

// FeatureDim is the dimensionality of the index feature vectors.
const FeatureDim = 9

// The bandit's hyperparameters.
const (
	alpha       = 0.6 // scale of the exploration bonus
	ridgeLambda = 1.0 // ridge regularizer
)

// DBABandits is the bandit enumeration algorithm.
type DBABandits struct {
	// Trajectory, when non-nil, receives the improvement (percent, measured
	// on observed what-if costs) of the best configuration found after each
	// round — the per-round series of Figure 14.
	Trajectory *[]float64
}

// Name implements search.Algorithm.
func (DBABandits) Name() string { return "DBA Bandits" }

// Enumerate implements search.Algorithm.
func (b DBABandits) Enumerate(s *search.Session) iset.Set {
	n := s.NumCandidates()
	if n == 0 {
		return iset.Set{}
	}
	feats := featurize(s)

	// Ridge regression state: V = λI + Σ x xᵀ, bvec = Σ r·x.
	V := identity(FeatureDim, ridgeLambda)
	bvec := make([]float64, FeatureDim)

	baseW := s.Derived.BaseWorkload()
	bestCfg := iset.Set{}
	bestCost := baseW

	m := len(s.W.Queries)
	round := 0
	stalled := 0
	for s.Remaining() >= 1 && stalled < 3 {
		usedBefore := s.Used()
		theta := solve(V, bvec)
		Vinv := invert(V)
		cfg := b.selectSuperArm(s, feats, theta, Vinv, round)

		// Observe the configuration: one what-if call per query, stopping
		// when the budget runs out mid-round (remaining queries fall back to
		// derived costs, consistent with the budget-aware protocol).
		costs := make([]float64, m)
		total := 0.0
		for qi := range s.W.Queries {
			c, _ := s.WhatIf(qi, cfg)
			costs[qi] = c
			total += c * s.W.Queries[qi].EffectiveWeight()
		}
		if total < bestCost {
			bestCost = total
			bestCfg = cfg.Clone()
		}
		b.update(s, feats, cfg, costs, V, bvec)
		// A round whose every what-if call was already cached consumes no
		// budget; after a few such rounds the bandit has converged on a
		// fully-known configuration and further rounds cannot learn more.
		if s.Used() == usedBefore {
			stalled++
		} else {
			stalled = 0
		}
		if b.Trajectory != nil || s.Trace != nil {
			imp := 0.0
			if baseW > 0 {
				imp = 100 * (1 - bestCost/baseW)
			}
			if b.Trajectory != nil {
				*b.Trajectory = append(*b.Trajectory, imp)
			}
			if s.Trace != nil {
				s.Trace.Step("bandit", round, imp, s.Used())
				s.Trace.Point(s.Used(), imp)
			}
		}
		round++
	}
	return bestCfg
}

// selectSuperArm greedily picks up to K arms by UCB score; the first round
// uses the static potential-benefit feature as its prior signal (all-zero θ
// makes the score purely exploratory otherwise).
func (b DBABandits) selectSuperArm(s *search.Session, feats [][]float64, theta []float64, Vinv [][]float64, round int) iset.Set {
	n := s.NumCandidates()
	type scored struct {
		ord   int
		score float64
	}
	arms := make([]scored, 0, n)
	for i := 0; i < n; i++ {
		x := feats[i]
		score := dot(theta, x) + alpha*math.Sqrt(quadForm(Vinv, x))
		if round == 0 {
			// Cold start: rank by the featurized potential-benefit signal.
			score = x[0] + 0.1*x[7]
		}
		arms = append(arms, scored{ord: i, score: score})
	}
	// Partial selection sort: K is small.
	cfg := iset.NewSet(n)
	for picked := 0; picked < s.K; picked++ {
		best := -1
		for i := range arms {
			if cfg.Has(arms[i].ord) || !s.FitsStorage(cfg, arms[i].ord) {
				continue
			}
			if best < 0 || arms[i].score > arms[best].score {
				best = i
			}
		}
		if best < 0 || arms[best].score <= 0 && picked > 0 {
			break
		}
		cfg.Add(arms[best].ord)
	}
	return cfg
}

// update credits each selected arm with its share of the observed per-query
// benefit and folds the (feature, reward) observations into the ridge state.
func (b DBABandits) update(s *search.Session, feats [][]float64, cfg iset.Set, costs []float64, V [][]float64, bvec []float64) {
	ords := cfg.Ordinals()
	if len(ords) == 0 {
		return
	}
	baseW := s.Derived.BaseWorkload()
	if baseW <= 0 {
		return
	}
	reward := make(map[int]float64, len(ords))
	for qi, q := range s.W.Queries {
		benefit := (s.Derived.Base(qi) - costs[qi]) * q.EffectiveWeight()
		if benefit <= 0 {
			continue
		}
		// Credit arms on tables the query references; fall back to all arms.
		var credited []int
		for _, o := range ords {
			if refsTable(s, qi, o) {
				credited = append(credited, o)
			}
		}
		if len(credited) == 0 {
			credited = ords
		}
		share := benefit / float64(len(credited)) / baseW
		for _, o := range credited {
			reward[o] += share
		}
	}
	for _, o := range ords {
		x := feats[o]
		r := reward[o]
		for i := 0; i < FeatureDim; i++ {
			for j := 0; j < FeatureDim; j++ {
				V[i][j] += x[i] * x[j]
			}
			bvec[i] += r * x[i]
		}
	}
}

func refsTable(s *search.Session, qi, ord int) bool {
	table := s.Cands.Candidates[ord].Index.Table
	for _, r := range s.W.Queries[qi].Refs {
		if r.Table == table {
			return true
		}
	}
	return false
}

// featurize builds the per-candidate feature vectors. Features are purely
// syntactic (no what-if calls): the featurization prior of DBA bandits.
func featurize(s *search.Session) [][]float64 {
	n := s.NumCandidates()
	maxRows := 1.0
	for _, c := range s.Cands.Candidates {
		if float64(c.TableRows) > maxRows {
			maxRows = float64(c.TableRows)
		}
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		c := &s.Cands.Candidates[i]
		ix := c.Index
		potential := 0.0
		for _, qi := range c.Queries {
			potential += s.Derived.Base(qi) * s.W.Queries[qi].EffectiveWeight()
		}
		baseW := s.Derived.BaseWorkload()
		if baseW > 0 {
			potential /= baseW
		}
		logRows := math.Log1p(float64(c.TableRows)) / math.Log1p(maxRows)
		x := []float64{
			potential,                    // 0: share of workload cost touching relevant queries
			logRows,                      // 1: table size
			float64(len(ix.Key)) / 4,     // 2: key width
			float64(len(ix.Include)) / 8, // 3: include width
			math.Log1p(float64(ix.SizeBytes(s.W.DB))) / 40,      // 4: index size
			boolF(leadingIsJoinCol(s, i)),                       // 5: join-leading
			boolF(len(ix.Include) > 0),                          // 6: covering
			float64(len(c.Queries)) / float64(len(s.W.Queries)), // 7: query fan-out
			1, // 8: bias
		}
		out[i] = x
	}
	return out
}

func leadingIsJoinCol(s *search.Session, ord int) bool {
	c := &s.Cands.Candidates[ord]
	lead := c.Index.Key[0]
	for _, qi := range c.Queries {
		for _, r := range s.W.Queries[qi].Refs {
			if r.Table != c.Index.Table {
				continue
			}
			for _, jc := range r.JoinCols {
				if jc == lead {
					return true
				}
			}
		}
	}
	return false
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
