package indextune

import (
	"strings"
	"testing"
	"time"
)

func TestTuneDefaultsOnTPCH(t *testing.T) {
	w := Workload("tpch")
	res, err := Tune(w, Options{K: 5, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) == 0 || len(res.Indexes) > 5 {
		t.Fatalf("indexes = %d", len(res.Indexes))
	}
	if res.ImprovementPct <= 0 {
		t.Fatalf("improvement = %v", res.ImprovementPct)
	}
	if res.WhatIfCalls > 100 {
		t.Fatalf("budget exceeded: %d", res.WhatIfCalls)
	}
	if res.Algorithm == "" || res.Candidates == 0 || res.StorageBytes <= 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
	for _, ix := range res.Indexes {
		if err := ix.Validate(w.DB); err != nil {
			t.Fatalf("recommended index invalid: %v", err)
		}
	}
}

func TestTuneEveryAlgorithm(t *testing.T) {
	w := Workload("tpch")
	for _, alg := range Algorithms() {
		res, err := Tune(w, Options{K: 5, Budget: 80, Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Indexes) > 5 {
			t.Fatalf("%s: %d indexes", alg, len(res.Indexes))
		}
		if res.ImprovementPct < 0 {
			t.Fatalf("%s: improvement %v", alg, res.ImprovementPct)
		}
	}
}

func TestTuneErrors(t *testing.T) {
	if _, err := Tune(nil, Options{}); err == nil {
		t.Fatal("nil workload should error")
	}
	w := Workload("tpch")
	if _, err := Tune(w, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Tune(w, Options{MCTS: &MCTSOptions{Extraction: "bad"}}); err == nil {
		t.Fatal("unknown extraction should error")
	}
	bad := &WorkloadSet{Name: "bad", DB: NewDatabase("d")}
	bad.Queries = append(bad.Queries, mustBuild(t))
	if _, err := Tune(bad, Options{}); err == nil {
		t.Fatal("invalid workload should error")
	}
}

func mustBuild(t *testing.T) *Query {
	t.Helper()
	b := NewQuery("q")
	r := b.Ref("missing_table")
	b.Proj(r, "x")
	return b.Build()
}

func TestTuneMCTSVariants(t *testing.T) {
	w := Workload("tpch")
	variants := []*MCTSOptions{
		{Policy: "uct"},
		{RandomizedRollout: true},
		{Extraction: "bce"},
		{Extraction: "hybrid"},
		{FixedStep: 1},
	}
	for i, mo := range variants {
		res, err := Tune(w, Options{K: 5, Budget: 60, MCTS: mo, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if len(res.Indexes) > 5 {
			t.Fatalf("variant %d: %d indexes", i, len(res.Indexes))
		}
	}
}

func TestTuneDeterministicPerSeed(t *testing.T) {
	w := Workload("tpch")
	a, err := Tune(w, Options{K: 5, Budget: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(w, Options{K: 5, Budget: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.ImprovementPct != b.ImprovementPct || len(a.Indexes) != len(b.Indexes) {
		t.Fatal("same seed produced different results")
	}
}

func TestTuneStorageConstraint(t *testing.T) {
	w := Workload("tpch")
	limit := w.DB.SizeBytes() / 10
	res, err := Tune(w, Options{K: 10, Budget: 100, StorageLimitBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	if res.StorageBytes > limit {
		t.Fatalf("storage %d > limit %d", res.StorageBytes, limit)
	}
}

func TestTuneDTA(t *testing.T) {
	w := Workload("tpch")
	res, err := TuneDTA(w, 2*time.Minute, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) > 5 || res.ImprovementPct < 0 {
		t.Fatalf("DTA result: %+v", res)
	}
	if _, err := TuneDTA(nil, time.Minute, 5, 0, 1); err == nil {
		t.Fatal("nil workload should error")
	}
}

func TestParseQueryEndToEnd(t *testing.T) {
	db := NewDatabase("d")
	db.AddTable(NewTable("t", 1_000_000,
		Column{Name: "a", NDV: 100, Width: 8},
		Column{Name: "b", NDV: 10, Width: 8},
		Column{Name: "payload", NDV: 1_000_000, Width: 150},
	))
	q, err := ParseQuery(db, "q1", "SELECT a FROM t WHERE b = 3")
	if err != nil {
		t.Fatal(err)
	}
	w := &WorkloadSet{Name: "w", DB: db, Queries: []*Query{q}}
	res, err := Tune(w, Options{K: 1, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) != 1 {
		t.Fatalf("indexes = %v", res.Indexes)
	}
	if res.Indexes[0].Table != "t" {
		t.Fatalf("index on wrong table: %v", res.Indexes[0])
	}
}

func TestGenerateCandidatesPublic(t *testing.T) {
	w := Workload("tpch")
	ixs, err := GenerateCandidates(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ixs) < 50 {
		t.Fatalf("candidates = %d, want a rich set", len(ixs))
	}
	if _, err := GenerateCandidates(nil); err == nil {
		t.Fatal("nil workload should error")
	}
}

func TestExplainQueryRenders(t *testing.T) {
	w := Workload("tpch")
	ixs, _ := GenerateCandidates(w)
	out := ExplainQuery(w, w.Queries[0], ixs[:5])
	if !strings.Contains(out, "cost=") {
		t.Fatalf("explain output = %q", out)
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("Workloads = %v", Workloads())
	}
	for _, name := range Workloads() {
		if Workload(name) == nil {
			t.Fatalf("workload %q missing", name)
		}
	}
	if Workload("bogus") != nil {
		t.Fatal("bogus workload should be nil")
	}
}

// Integration shape check: on TPC-DS with a small budget, MCTS must beat
// every greedy baseline (the paper's headline result, Figure 8).
func TestMCTSDominatesBaselinesAtSmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	w := Workload("tpcds")
	imp := func(alg string) float64 {
		res, err := Tune(w, Options{K: 10, Budget: 1000, Algorithm: alg, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res.ImprovementPct
	}
	mcts := imp(AlgorithmMCTS)
	for _, alg := range []string{AlgorithmVanilla, AlgorithmTwoPhase, AlgorithmAutoAdmin} {
		if base := imp(alg); mcts <= base {
			t.Fatalf("MCTS (%.1f%%) should beat %s (%.1f%%) at B=1000 on TPC-DS", mcts, alg, base)
		}
	}
}
