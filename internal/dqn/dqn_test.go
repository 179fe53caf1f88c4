package dqn

import (
	"testing"

	"indextune/internal/candgen"
	"indextune/internal/search"
	"indextune/internal/workload"
)

func session(t *testing.T, k, budget int) *search.Session {
	t.Helper()
	w := workload.ByName("tpch")
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	return search.NewSession(w, cands, opt, k, budget, 1)
}

func TestNoDBARespectsConstraints(t *testing.T) {
	s := session(t, 5, 120)
	cfg := NoDBA{}.Enumerate(s)
	if cfg.Len() > 5 {
		t.Fatalf("|cfg| = %d > K", cfg.Len())
	}
	if s.Used() > 120 {
		t.Fatalf("used %d > budget", s.Used())
	}
}

func TestNoDBATrajectoryNonDecreasing(t *testing.T) {
	s := session(t, 5, 150)
	var traj []float64
	NoDBA{Trajectory: &traj}.Enumerate(s)
	if len(traj) == 0 {
		t.Fatal("no rounds recorded")
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1]-1e-9 {
			t.Fatalf("best-so-far decreased at round %d", i)
		}
	}
}

func TestNoDBADeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		s := session(t, 5, 100)
		cfg := NoDBA{}.Enumerate(s)
		return s.OracleImprovement(cfg)
	}
	if run() != run() {
		t.Fatal("NoDBA not deterministic for a fixed seed")
	}
}

func TestNoDBAReturnsBestObserved(t *testing.T) {
	s := session(t, 10, 300)
	cfg := NoDBA{}.Enumerate(s)
	// The returned config is the best of the evaluated rounds, so its
	// improvement must be non-negative under the oracle as well.
	if imp := s.OracleImprovement(cfg); imp < 0 {
		t.Fatalf("improvement = %v", imp)
	}
}

// The agent runs the paper's 3×96 network with the baseline's Q-learning
// settings.
func TestOptionsDefaults(t *testing.T) {
	if hidden != 96 || gamma != 0.9 || batchSize != 8 || replaySize != 512 {
		t.Fatalf("hyperparameters wrong: hidden %d, gamma %v, batch %d, replay %d",
			hidden, gamma, batchSize, replaySize)
	}
}
