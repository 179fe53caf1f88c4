// Package dqn implements the "No DBA" baseline of Section 7.2.2: deep
// Q-learning over one-hot configuration states, with optimizer-estimated
// what-if costs as rewards, a 3×96 fully-connected ReLU network, CPU-only
// training, and a round-based budget protocol (one what-if call per query
// per round for the configuration chosen by the agent).
package dqn

import (
	"math/rand"

	"indextune/internal/iset"
	"indextune/internal/nn"
	"indextune/internal/search"
)

// The agent's hyperparameters: the paper's 3×96 network, plus the
// baseline's Q-learning settings.
const (
	hidden       = 96   // hidden layer width
	gamma        = 0.9  // discount
	epsilonStart = 1.0  // initial exploration rate
	epsilonEnd   = 0.1  // final exploration rate
	replaySize   = 512  // replay buffer capacity
	batchSize    = 8    // minibatch per training step
	targetEvery  = 5    // rounds between target-network syncs
	learningRate = 1e-3 // Adam learning rate
)

// NoDBA is the deep-RL enumeration algorithm.
type NoDBA struct {
	// Trajectory, when non-nil, receives the best-so-far improvement
	// (percent) after each round (Figure 14).
	Trajectory *[]float64
}

// Name implements search.Algorithm.
func (NoDBA) Name() string { return "No DBA" }

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
	done   bool
}

// Enumerate implements search.Algorithm.
func (d NoDBA) Enumerate(s *search.Session) iset.Set {
	n := s.NumCandidates()
	if n == 0 {
		return iset.Set{}
	}
	m := len(s.W.Queries)
	rounds := s.Budget / m
	if rounds < 1 {
		rounds = 1
	}

	rng := rand.New(rand.NewSource(s.Rng.Int63()))
	qnet := nn.New(rng, n, hidden, hidden, hidden, n)
	qnet.LR = learningRate
	target := nn.New(rng, n, hidden, hidden, hidden, n)
	target.CopyFrom(qnet)

	replay := make([]transition, 0, replaySize)
	replayAt := 0
	push := func(t transition) {
		if len(replay) < replaySize {
			replay = append(replay, t)
			return
		}
		replay[replayAt] = t
		replayAt = (replayAt + 1) % replaySize
	}

	baseW := s.Derived.BaseWorkload()
	bestCfg := iset.Set{}
	bestCost := baseW

	for round := 0; round < rounds && !s.Exhausted(); round++ {
		eps := epsilonStart
		if rounds > 1 {
			eps += (epsilonEnd - epsilonStart) * float64(round) / float64(rounds-1)
		}
		// One episode: greedily grow a configuration of up to K indexes.
		cfg := iset.NewSet(n)
		state := make([]float64, n)
		var steps []transition
		for step := 0; step < s.K; step++ {
			a := d.chooseAction(qnet, state, cfg, s, rng, eps)
			if a < 0 {
				break
			}
			cfg.Add(a)
			next := append([]float64(nil), state...)
			next[a] = 1
			steps = append(steps, transition{state: append([]float64(nil), state...), action: a, next: next})
			state = next
		}
		// Evaluate the episode's configuration: one what-if call per query.
		total := 0.0
		for qi := range s.W.Queries {
			c, _ := s.WhatIf(qi, cfg)
			total += c * s.W.Queries[qi].EffectiveWeight()
		}
		if total < bestCost {
			bestCost = total
			bestCfg = cfg.Clone()
		}
		eta := 0.0
		if baseW > 0 {
			eta = 1 - total/baseW
		}
		// Sparse terminal reward, as in the paper's adaptation.
		for i := range steps {
			steps[i].done = i == len(steps)-1
			if steps[i].done {
				steps[i].reward = eta
			}
			push(steps[i])
		}
		d.train(qnet, target, replay, rng, s)
		if (round+1)%targetEvery == 0 {
			target.CopyFrom(qnet)
		}
		if d.Trajectory != nil || s.Trace != nil {
			imp := 0.0
			if baseW > 0 {
				imp = 100 * (1 - bestCost/baseW)
			}
			if d.Trajectory != nil {
				*d.Trajectory = append(*d.Trajectory, imp)
			}
			if s.Trace != nil {
				s.Trace.Step("dqn", round, imp, s.Used())
				s.Trace.Point(s.Used(), imp)
			}
		}
	}
	return bestCfg
}

// chooseAction is ε-greedy over the Q-network's action values, restricted to
// admissible actions (not already chosen, within the storage limit).
func (d NoDBA) chooseAction(qnet *nn.Network, state []float64, cfg iset.Set, s *search.Session, rng *rand.Rand, eps float64) int {
	n := s.NumCandidates()
	var admissible []int
	for a := 0; a < n; a++ {
		if !cfg.Has(a) && s.FitsStorage(cfg, a) {
			admissible = append(admissible, a)
		}
	}
	if len(admissible) == 0 {
		return -1
	}
	if rng.Float64() < eps {
		return admissible[rng.Intn(len(admissible))]
	}
	q := qnet.Forward(state)
	best := admissible[0]
	for _, a := range admissible[1:] {
		if q[a] > q[best] {
			best = a
		}
	}
	return best
}

// train runs one minibatch of Q-learning updates from the replay buffer.
func (d NoDBA) train(qnet, target *nn.Network, replay []transition, rng *rand.Rand, s *search.Session) {
	if len(replay) == 0 {
		return
	}
	n := s.NumCandidates()
	for b := 0; b < batchSize; b++ {
		t := replay[rng.Intn(len(replay))]
		y := t.reward
		if !t.done {
			tq := target.Forward(t.next)
			best := tq[0]
			for _, v := range tq[1:] {
				if v > best {
					best = v
				}
			}
			y += gamma * best
		}
		out := qnet.Forward(t.state)
		grad := make([]float64, n)
		grad[t.action] = out[t.action] - y // dMSE/dQ(s,a), factor 2 folded into LR
		qnet.Backward(grad)
	}
}
