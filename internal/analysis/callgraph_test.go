package analysis

import (
	"testing"
)

// The call-graph tests run against the real module packages: search.Run's
// `alg.Enumerate(s)` call through the Algorithm interface is the module's
// canonical devirtualization site, and the tuning stack supplies several
// implementations across packages, so the test exercises cross-package
// interface resolution end to end.

func loadGraph(t *testing.T, patterns ...string) *CallGraph {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return NewFacts(pkgs).CallGraph()
}

// outEdges returns sym's node's outgoing edges, failing when the node is
// missing.
func outEdges(t *testing.T, g *CallGraph, sym Symbol) []*CGEdge {
	t.Helper()
	n := g.Nodes[sym]
	if n == nil {
		t.Fatalf("call graph has no node for %s", sym)
	}
	return n.Out
}

func TestCallGraphDevirtualizesAlgorithm(t *testing.T) {
	g := loadGraph(t, "internal/search", "internal/core", "internal/greedy")

	// Run calls alg.Enumerate through the Algorithm interface: expect the
	// abstract edge plus Devirt edges to every loaded implementation.
	wantDevirt := map[Symbol]bool{
		"indextune/internal/core.(MCTS).Enumerate":        false,
		"indextune/internal/core.(DP).Enumerate":          false,
		"indextune/internal/greedy.(Vanilla).Enumerate":   false,
		"indextune/internal/greedy.(TwoPhase).Enumerate":  false,
		"indextune/internal/greedy.(AutoAdmin).Enumerate": false,
	}
	abstract := false
	for _, e := range outEdges(t, g, "indextune/internal/search.Run") {
		if e.Callee.Sym == "indextune/internal/search.(Algorithm).Enumerate" && !e.Devirt {
			abstract = true
		}
		if e.Devirt {
			if _, ok := wantDevirt[e.Callee.Sym]; ok {
				wantDevirt[e.Callee.Sym] = true
			}
		}
	}
	if !abstract {
		t.Error("search.Run is missing the abstract edge to (Algorithm).Enumerate")
	}
	for sym, found := range wantDevirt {
		if !found {
			t.Errorf("search.Run is missing a Devirt edge to %s", sym)
		}
	}
	if len(outEdges(t, g, "indextune/internal/core.(MCTS).Enumerate")) == 0 {
		t.Error("core.(MCTS).Enumerate, declared in a loaded package, has no outgoing edges")
	}
}

// TestCallGraphDevirtualizesIgnoringResultNames pins devirtualization by
// type identity: io.Writer names its results (n int, err error) while
// jobs.(*Broadcast).Write returns (int, error), and the implementation must
// still be reached from WriteSnapshot's w.Write calls.
func TestCallGraphDevirtualizesIgnoringResultNames(t *testing.T) {
	g := loadGraph(t, "internal/whatif", "internal/jobs")
	devirt := 0
	for _, e := range outEdges(t, g, "indextune/internal/whatif.(Optimizer).WriteSnapshot") {
		if e.Devirt && e.Callee.Sym == "indextune/internal/jobs.(Broadcast).Write" {
			devirt++
		}
	}
	if devirt != 3 {
		t.Errorf("WriteSnapshot has %d Devirt edges to jobs.(Broadcast).Write, want 3 (one per w.Write)", devirt)
	}
}

// TestCallGraphStaticEdges pins plain (non-interface) resolution: Run's
// direct method calls on the concrete *Session receiver.
func TestCallGraphStaticEdges(t *testing.T) {
	g := loadGraph(t, "internal/search")

	want := map[Symbol]bool{
		"indextune/internal/search.(Session).OracleImprovement": false,
		"indextune/internal/search.(Session).Used":              false,
	}
	for _, e := range outEdges(t, g, "indextune/internal/search.Run") {
		if e.Devirt || e.ValueRef {
			continue
		}
		if _, ok := want[e.Callee.Sym]; ok {
			want[e.Callee.Sym] = true
		}
	}
	for sym, found := range want {
		if !found {
			t.Errorf("search.Run is missing a static call edge to %s", sym)
		}
	}
}
