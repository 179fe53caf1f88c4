package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"indextune/internal/iset"
	"indextune/internal/search"
)

func parallelDefault(workers int) MCTS {
	m := Default()
	m.Opts.Workers = workers
	return m
}

// trace summarizes everything observable about a finished run: the returned
// configuration, the exact budget accounting, and the full what-if layout
// trace (issue order included).
func runTrace(s *search.Session, m MCTS) string {
	cfg := m.Enumerate(s)
	return fmt.Sprintf("cfg=%v used=%d hits=%d layout=%v",
		cfg.Ordinals(), s.Used(), s.CacheHits(), s.Layout.Cells())
}

// The acceptance pin: with a fixed seed, Workers=4 output is stable across
// repeated runs — the pipeline's merge order is deterministic, not a
// function of goroutine scheduling.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	var first string
	for run := 0; run < 3; run++ {
		got := runTrace(session(t, "tpch", 5, 100, 7), parallelDefault(4))
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d diverged:\n  first: %s\n  got:   %s", run, first, got)
		}
	}
}

// Workers=1 is the default: explicitly requesting one worker is
// bit-identical to the tuner with Workers unset, including the layout trace.
func TestParallelWorkersOneMatchesSequential(t *testing.T) {
	seq := runTrace(session(t, "tpch", 5, 100, 7), Default())
	one := runTrace(session(t, "tpch", 5, 100, 7), parallelDefault(1))
	if seq != one {
		t.Fatalf("Workers=1 diverged from sequential:\n  seq: %s\n  w=1: %s", seq, one)
	}
	// The session-level hint routes through the same switch.
	s := session(t, "tpch", 5, 100, 7)
	s.Workers = 1
	if got := runTrace(s, Default()); got != seq {
		t.Fatalf("session Workers=1 diverged from sequential:\n  seq: %s\n  got: %s", seq, got)
	}
}

// The session's Workers hint must be honored when Options.Workers is unset,
// and produce the same trajectory as the explicit option.
func TestSessionWorkersHintMatchesOption(t *testing.T) {
	viaOpt := runTrace(session(t, "tpch", 5, 100, 7), parallelDefault(4))
	s := session(t, "tpch", 5, 100, 7)
	s.Workers = 4
	viaHint := runTrace(s, Default())
	if viaOpt != viaHint {
		t.Fatalf("session hint diverged from explicit option:\n  opt:  %s\n  hint: %s", viaOpt, viaHint)
	}
}

// All policy/rollout/extraction variants must respect K and the budget under
// parallel execution, and different worker counts may not over-charge.
func TestParallelVariantsRespectConstraints(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, m := range allVariants() {
			m.Opts.Workers = workers
			s := session(t, "tpch", 5, 60, 3)
			cfg := m.Enumerate(s)
			if cfg.Len() > 5 {
				t.Errorf("%s w=%d: |cfg| = %d > K", m.Name(), workers, cfg.Len())
			}
			if s.Used() > 60 {
				t.Errorf("%s w=%d: used %d > budget 60", m.Name(), workers, s.Used())
			}
		}
	}
}

// updateGolden rewrites the committed prior-phase golden from the current
// tree:
//
//	go test -run TestParallelPriorsMatchSequential ./internal/core -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables from the current tree")

// priorsGoldenPath holds the prior phase's recorded outcome.
const priorsGoldenPath = "testdata/priors_golden.tsv"

// priorsDigest renders the prior phase's observable outcome: the float64
// bits of every prior, the budget accounting, and the layout trace.
func priorsDigest(s *search.Session, tn *tuner) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range tn.priors {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	layout := sha256.Sum256([]byte(fmt.Sprint(s.Layout.Cells())))
	return fmt.Sprintf("priors=%x\tused=%d\thits=%d\tlayout=%x", h.Sum(nil), s.Used(), s.CacheHits(), layout)
}

// The prior phase must reproduce, at every worker count, the golden
// recorded while the one-pair-at-a-time Algorithm 4 pass still existed and
// was verified bit-identical to the batched one: same priors, same budget
// use, same layout trace.
func TestParallelPriorsMatchSequential(t *testing.T) {
	raw, err := os.ReadFile(priorsGoldenPath)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	var got string
	for _, workers := range []int{1, 4} {
		s := session(t, "tpch", 5, 100, 1)
		tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
		tn.priors = make([]float64, s.NumCandidates())
		tn.computePriors(workers)
		got = priorsDigest(s, tn)
		if !*updateGolden && got != want {
			t.Errorf("workers=%d diverged from %s:\n  want: %s\n  got:  %s", workers, priorsGoldenPath, want, got)
		}
	}
	if *updateGolden && !t.Failed() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(priorsGoldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// After the pipeline drains, no virtual loss may remain anywhere in the
// tree, and visit accounting must match the one-slot invariants.
func TestParallelVirtualLossFullyLifted(t *testing.T) {
	s := session(t, "tpch", 5, 120, 4)
	tn := &tuner{opts: Default().Opts, s: s, rng: s.Rng, baseW: s.Derived.BaseWorkload()}
	tn.priors = make([]float64, s.NumCandidates())
	tn.buildPriorPrefix()
	tn.root = tn.newNode(iset.Set{}, 0)
	tn.bestCfg = iset.Set{}
	tn.run(4)

	var walk func(n *node)
	walk = func(n *node) {
		if n.vvisits != 0 {
			t.Fatalf("node %v retains vvisits = %d after drain", n.cfg.Ordinals(), n.vvisits)
		}
		sum := 0
		for _, a := range n.statKeys {
			st := n.stats[a]
			if st.vloss != 0 {
				t.Fatalf("action %d retains vloss = %d after drain", a, st.vloss)
			}
			sum += st.n
		}
		if sum > n.visits {
			t.Fatalf("Σ n(s,a) = %d exceeds N(s) = %d", sum, n.visits)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tn.root)
}

// Parallel search must still find substantial improvements (it explores a
// different but equally valid trajectory).
func TestParallelFindsPositiveImprovement(t *testing.T) {
	s := session(t, "tpch", 10, 200, 1)
	cfg := parallelDefault(4).Enumerate(s)
	if imp := s.OracleImprovement(cfg); imp <= 0.1 {
		t.Fatalf("improvement = %v, want > 10%% on TPC-H with 200 calls", imp)
	}
}

// Race stress (run under -race): wide pipelines, and two parallel tuners
// sharing one optimizer from separate goroutines. Pins the tentpole's
// -race-clean contract.
func TestParallelRaceStress(t *testing.T) {
	for _, workers := range []int{2, 8} {
		s := session(t, "tpch", 5, 150, 11)
		parallelDefault(workers).Enumerate(s)
	}
	// Two sessions over one shared optimizer, each with its own pipeline.
	base := session(t, "tpch", 5, 120, 5)
	other := search.NewSession(base.W, base.Cands, base.Opt, 5, 120, 6)
	done := make(chan struct{})
	go func() {
		defer close(done)
		parallelDefault(4).Enumerate(other)
	}()
	parallelDefault(4).Enumerate(base)
	<-done
	if base.Used() > 120 || other.Used() > 120 {
		t.Fatalf("over-charged: %d / %d", base.Used(), other.Used())
	}
}
