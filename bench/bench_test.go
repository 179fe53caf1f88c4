package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The smoke test runs every workload at a tiny size through the code the
// benchmark runs: every metric BENCHMARK.json lists must be reported with
// its unit, no check may fail, and the quality numbers must match their
// goldens exactly.

var tunedPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tunedPath = filepath.Join(dir, "tuned")
	code := 1
	if out, err := exec.Command("go", "build", "-o", tunedPath, "indextune/cmd/tuned").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tuned: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// loadSpec reads the benchmark definition at the repository root.
func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkReport requires a clean run that reports exactly the listed
// metrics, each with its unit.
func checkReport(t *testing.T, name string, rep *report, err error, want []boundSpec) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", name, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
		}
	}
	if len(rep.Metrics) != len(want) {
		var names []string
		for n := range rep.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: reports %d metrics, BENCHMARK.json lists %d: %v", name, len(rep.Metrics), len(want), names)
	}
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	cfg := runConfig{seed: 1, window: time.Millisecond, tuned: tunedPath, now: time.Now}
	// Tiny quality sets, and the exact improvement_pct and whatif_calls
	// they give for seed 1.
	tiny := map[string]struct {
		quality     int
		improvement float64
		calls       float64
	}{
		"tpch-mcts-stop":    {2, 77.20938784843503, 1581},
		"reald-mcts-budget": {1, 47.8388745949424, 5000},
		"realm-twophase":    {1, 7.646874159598916, 5000},
		daemonName:          {8, 71.80448308813914, 1100.875},
	}
	golden := func(t *testing.T, name string, rep *report) {
		t.Helper()
		g := tiny[name]
		if got := rep.Metrics["improvement_pct"].Value; got != g.improvement {
			t.Errorf("%s: improvement_pct = %v, want %v", name, got, g.improvement)
		}
		if got := rep.Metrics["whatif_calls"].Value; got != g.calls {
			t.Errorf("%s: whatif_calls = %v, want %v", name, got, g.calls)
		}
	}
	// The runs are independent, so they share the CPUs; their times, shares
	// and peak RSS are then meaningless, but no assertion reads them. The
	// two traced passes run one after the other: the CPU profiler is
	// process-wide. The in-process workloads share one traced
	// implementation, so the smallest of them and the daemon cover both.
	ds := daemonSpec{quality: tiny[daemonName].quality}
	for _, sp := range sessionWorkloads {
		sp.quality = tiny[sp.name].quality
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			rep, err := sp.measure(cfg)
			checkReport(t, sp.name, rep, err, spec.EndToEnd)
			golden(t, sp.name, rep)
		})
	}
	t.Run(daemonName, func(t *testing.T) {
		t.Parallel()
		rep, err := ds.measure(cfg)
		checkReport(t, daemonName, rep, err, spec.EndToEnd)
		golden(t, daemonName, rep)
	})
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		sp := sessionWorkloads[0]
		rep, err := sp.traced(cfg)
		checkReport(t, sp.name+" traced", rep, err, spec.PerLayer)
		rep, err = ds.traced(cfg)
		checkReport(t, daemonName+" traced", rep, err, spec.PerLayer)
	})
}

// TestResultLine pins the shape of the last output line.
func TestResultLine(t *testing.T) {
	rep := newReport()
	rep.Attempted = 1
	rep.set("latency_p50_ms", 1.5, "ms", 3)
	line, err := json.Marshal(rep.finish())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_p50_ms":{"value":1.5,"unit":"ms"}}}`
	if string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}
