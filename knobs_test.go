package indextune

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// knobsGoldenPath holds one line per case of TestFixedKnobsGolden.
const knobsGoldenPath = "testdata/knobs_golden.tsv"

// TestFixedKnobsGolden pins the paths whose hyperparameters are fixed
// constants rather than options — the DBA-bandits and No-DBA baselines, UCT
// with λ = √2 at one and four workers, the DTA simulator's eight time
// slices, the anytime wrapper's default MCTS, and the parser's selectivity
// defaults — so every run reproduces the recorded configuration,
// improvement bits, budget accounting and (where the API traces) the
// Workers=1 JSONL stream SHA-256, and every parsed predicate the recorded
// selectivity bits.
func TestFixedKnobsGolden(t *testing.T) {
	want := readGolden(t, knobsGoldenPath)
	got := make(map[string]string)
	check := func(t *testing.T, name, line string) {
		t.Helper()
		got[name] = line
		if !*updateGolden && line != want[name] {
			t.Errorf("diverged from %s:\n  want: %s\n  got:  %s", knobsGoldenPath, want[name], line)
		}
	}

	workloads := []struct {
		name string
		w    *WorkloadSet
	}{
		{"tpch", Workload("tpch")},
		{"synth11", synthBatchWorkload(t, 11)},
	}
	for _, wl := range workloads {
		for _, alg := range []string{AlgorithmBandit, AlgorithmNoDBA} {
			name := fmt.Sprintf("%s/%s/w1", wl.name, alg)
			t.Run(name, func(t *testing.T) {
				check(t, name, goldenRun(t, wl.w, Options{
					K: 5, Budget: 150, Seed: 7, Algorithm: alg, SessionWorkers: 1,
				}))
			})
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/mcts-uct/w%d", wl.name, workers)
			t.Run(name, func(t *testing.T) {
				check(t, name, goldenRun(t, wl.w, Options{
					K: 5, Budget: 150, Seed: 7, Algorithm: AlgorithmMCTS,
					SessionWorkers: workers, MCTS: &MCTSOptions{Policy: "uct"},
				}))
			})
		}
	}

	tpch := Workload("tpch")
	t.Run("tpch/dta", func(t *testing.T) {
		r, err := TuneDTA(tpch, 2*time.Minute, 5, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(r.Indexes))
		for i, ix := range r.Indexes {
			ids[i] = ix.ID()
		}
		check(t, "tpch/dta", strings.Join([]string{
			strings.Join(ids, ";"),
			fmt.Sprintf("imp=%016x", math.Float64bits(r.ImprovementPct)),
			fmt.Sprintf("calls=%d", r.WhatIfCalls),
			fmt.Sprintf("cands=%d", r.Candidates),
		}, "\t"))
	})
	t.Run("tpch/anytime", func(t *testing.T) {
		var events bytes.Buffer
		r, err := TuneAnytime(tpch, AnytimeOptions{
			K: 5, TimeBudget: 30 * time.Second, Seed: 7, TraceEvents: &events,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "tpch/anytime", goldenResult(r, events.Bytes(), 1))
	})

	// Parser selectivity defaults: a range predicate without a histogram,
	// and equality predicates whose estimates fall below the floor — one
	// from 1/NDV, one from a histogram.
	db := NewDatabase("knobs")
	db.AddTable(NewTable("t", 1_000_000,
		Column{Name: "a", NDV: 100, Width: 8},
		Column{Name: "b", NDV: 1000, Width: 8},
		Column{Name: "huge", NDV: 1 << 40, Width: 8},
	))
	var cat StatsCatalog
	cat.Put("t", "b", &Histogram{Min: 0, Rows: 1 << 40, NDV: 1000, Buckets: []float64{50, 100}})
	parses := []struct {
		name, sql string
		stats     *StatsCatalog
	}{
		{"range", "SELECT a FROM t WHERE b > 2", nil},
		{"between", "SELECT a FROM t WHERE b BETWEEN 1 AND 5", nil},
		{"eq-ndv-floor", "SELECT a FROM t WHERE huge = 7", nil},
		{"eq-hist-floor", "SELECT a FROM t WHERE b = 500", &cat},
	}
	for _, p := range parses {
		name := "parse/" + p.name
		t.Run(name, func(t *testing.T) {
			var q *Query
			var err error
			if p.stats == nil {
				q, err = ParseQuery(db, "q", p.sql)
			} else {
				q, err = ParseQueryWithStats(db, "q", p.sql, p.stats)
			}
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, fmt.Sprintf("sel=%016x", math.Float64bits(q.Refs[0].Filters[0].Selectivity)))
		})
	}

	if *updateGolden && !t.Failed() {
		writeGolden(t, knobsGoldenPath,
			"# TestFixedKnobsGolden golden: name, config, improvement bits, counters (and for runs, stop accounting, trace counters, Workers=1 stream SHA-256), or selectivity bits.\n", got)
	}
}
