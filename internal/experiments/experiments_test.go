package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"indextune/internal/core"
	"indextune/internal/greedy"
	"indextune/internal/trace"
)

// tiny is small enough for unit tests.
var tiny = Config{Seeds: 1, Scale: 50}

// figure builds one experiment through ByID at the tiny configuration.
func figure(t *testing.T, id string) *Figure {
	t.Helper()
	fig, err := ByID(tiny, id)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestWorkloadStatsTable(t *testing.T) {
	fig := figure(t, "table1")
	if len(fig.Panels) != 1 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	p := fig.Panels[0]
	if len(p.Series) != 6 {
		t.Fatalf("series = %d, want 6 statistics", len(p.Series))
	}
	for _, s := range p.Series {
		if len(s.Points) != 5 {
			t.Fatalf("series %q has %d points, want 5 workloads", s.Label, len(s.Points))
		}
	}
	out := fig.String()
	for _, name := range []string{"TPC-H", "TPC-DS", "JOB", "Real-D", "Real-M"} {
		if !strings.Contains(out, name) {
			t.Fatalf("rendered table missing %s:\n%s", name, out)
		}
	}
}

func TestTuningTimeSplitShape(t *testing.T) {
	fig := figure(t, "2")
	p := fig.Panels[0]
	if len(p.Series) != 2 {
		t.Fatalf("series = %d", len(p.Series))
	}
	// The what-if share must dominate (75-93% in Figure 2).
	for i := range p.Series[0].Points {
		wi := p.Series[0].Points[i].Mean
		other := p.Series[1].Points[i].Mean
		if wi <= 0 {
			t.Fatalf("no what-if time at point %d", i)
		}
		frac := wi / (wi + other)
		if frac < 0.7 || frac > 0.95 {
			t.Fatalf("what-if fraction = %v at point %d, want 0.75-0.93", frac, i)
		}
	}
}

func TestGreedyComparisonSmall(t *testing.T) {
	fig := figure(t, "17")
	if len(fig.Panels) != len(ks) {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 4 {
			t.Fatalf("series = %d, want 4 algorithms", len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.Points) != 5 {
				t.Fatalf("series %q has %d budget points", s.Label, len(s.Points))
			}
			for _, pt := range s.Points {
				if pt.Mean < 0 || pt.Mean > 100 {
					t.Fatalf("improvement %v out of range", pt.Mean)
				}
			}
		}
	}
}

func TestConvergencePanel(t *testing.T) {
	p := convergence(5, 1000)(newRunner(tiny, "TPC-H"))[0]
	if len(p.Series) != 3 {
		t.Fatalf("series = %d, want bandits, nodba, mcts", len(p.Series))
	}
	for _, s := range p.Series[:2] {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Mean < s.Points[i-1].Mean-1e-9 {
				t.Fatalf("%s: best-so-far decreased", s.Label)
			}
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID(tiny, "999"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestByIDKnownCheapOnes(t *testing.T) {
	for _, id := range []string{"table1", "2"} {
		fig, err := ByID(tiny, id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if fig.ID == "" || len(fig.Panels) == 0 {
			t.Fatalf("ByID(%s) produced empty figure", id)
		}
	}
}

// TestIDsCoverPaper checks the specs table: one unique id per spec, every
// spec named, captioned and buildable, and every table and figure of the
// paper's evaluation (Table 1, Figure 2, Figures 8-23) among them.
func TestIDsCoverPaper(t *testing.T) {
	ids := IDs()
	if len(ids) != len(specs) {
		t.Fatalf("IDs = %v, want one per spec (%d)", ids, len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.id] || s.name == "" || s.caption == "" || s.build == nil {
			t.Fatalf("spec %q: duplicate id or missing name, caption or build", s.id)
		}
		seen[s.id] = true
	}
	paper := []string{"table1", "2"}
	for f := 8; f <= 23; f++ {
		paper = append(paper, strconv.Itoa(f))
	}
	for _, id := range paper {
		if !seen[id] {
			t.Fatalf("IDs = %v, missing the paper's %q", ids, id)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	fig := figure(t, "table1")
	var sb strings.Builder
	if err := fig.WriteCSV(&sb, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header + 6 series × 5 workloads.
	if len(lines) != 1+30 {
		t.Fatalf("CSV lines = %d, want 31", len(lines))
	}
	if !strings.HasPrefix(lines[0], "figure,panel,series,x,mean,std") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Fatalf("meanStd = %v, %v; want 5, 2", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd should be zero")
	}
}

func TestBudgetsScale(t *testing.T) {
	full := Config{Seeds: 1, Scale: 1}
	if got := full.budgets("TPC-DS"); got[0] != 1000 || got[4] != 5000 {
		t.Fatalf("full budgets = %v", got)
	}
	if got := full.budgets("TPC-H"); got[0] != 50 || got[4] != 1000 {
		t.Fatalf("small-workload budgets = %v", got)
	}
	scaled := Config{Seeds: 1, Scale: 10}
	if got := scaled.budgets("TPC-DS"); got[0] != 100 {
		t.Fatalf("scaled budgets = %v", got)
	}
}

// TestFigureDeterministicUnderSharedCache regenerates one figure twice: the
// second generation runs entirely against caches warmed by the first (fresh
// runner each time vs reused state inside a runner). Budget-aware results
// must not depend on cache temperature.
func TestFigureDeterministicUnderSharedCache(t *testing.T) {
	cold := figure(t, "17")
	warm := figure(t, "17")
	if cold.String() != warm.String() {
		t.Fatalf("figure differs across regenerations:\n%s\nvs\n%s", cold.String(), warm.String())
	}

	// One runner, two identical runs: same improvement, and the second run's
	// session-local counters must match the first (no leakage).
	r := newRunner(Config{}, "TPC-H")
	a := r.run(greedy.Vanilla{}, 5, 40, 1, 0)
	b := r.run(greedy.Vanilla{}, 5, 40, 1, 0)
	if a.ImprovementPct != b.ImprovementPct || a.Config.Key() != b.Config.Key() {
		t.Fatalf("warm rerun changed the result: %+v vs %+v", a, b)
	}
	if a.WhatIfCalls != b.WhatIfCalls || a.CacheHits != b.CacheHits || a.TuningTime != b.TuningTime {
		t.Fatalf("warm rerun changed accounting: %+v vs %+v", a, b)
	}
}

// TestTraceDirWritesPerRunFiles pins the -trace-dir wiring: with
// Config.TraceDir set, every tuning run leaves one JSONL event stream and one
// summary JSON whose spend matches the run's what-if calls.
func TestTraceDirWritesPerRunFiles(t *testing.T) {
	cfg := tiny
	cfg.TraceDir = t.TempDir()
	r := newRunner(cfg, "TPC-H")
	res := r.run(core.Default(), 5, 50, 1, 0)

	base := traceFileName("TPC-H", core.Default().Name(), 5, 50, 1)
	events, err := os.ReadFile(filepath.Join(cfg.TraceDir, base+".jsonl"))
	if err != nil {
		t.Fatalf("event stream not written: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	data, err := os.ReadFile(filepath.Join(cfg.TraceDir, base+".summary.json"))
	if err != nil {
		t.Fatalf("summary not written: %v", err)
	}
	var sum trace.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("bad summary JSON: %v", err)
	}
	if sum.SpendTotal() != res.WhatIfCalls {
		t.Fatalf("summary spend %d != WhatIfCalls %d", sum.SpendTotal(), res.WhatIfCalls)
	}
}

// TestTraceDirNamesEveryRun runs the early-stopping experiment at one seed
// and budgets ÷100 with a trace directory: its 24 runs (three algorithms,
// two stop ε, four budget points, two of which scale to the same 10 calls)
// must leave 24 event streams and 24 summaries, none overwritten.
func TestTraceDirNamesEveryRun(t *testing.T) {
	dir := t.TempDir()
	if _, err := ByID(Config{Seeds: 1, Scale: 100, TraceDir: dir}, "earlystop"); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".jsonl", ".summary.json"} {
		files, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 24 {
			t.Fatalf("%d %s files for 24 runs: %v", len(files), ext, files)
		}
	}
}

// TestTraceFileNameSanitizes keeps algorithm labels filesystem-safe.
func TestTraceFileNameSanitizes(t *testing.T) {
	got := traceFileName("TPC-H", "Two-Phase Greedy", 10, 500, 42)
	if strings.ContainsAny(got, " /\\") {
		t.Fatalf("unsafe trace file name %q", got)
	}
	if got != "TPC-H_Two-Phase-Greedy_k10_b500_seed42" {
		t.Fatalf("unexpected name %q", got)
	}
}
