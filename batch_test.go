package indextune

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// updateGolden rewrites the committed golden tables from the current tree:
//
//	go test -run TestBatchScalarBitIdentical . -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables from the current tree")

// batchGoldenPath holds one line per grid case of TestBatchScalarBitIdentical.
const batchGoldenPath = "testdata/batch_golden.tsv"

// synthBatchWorkload builds a small random workload for the batch-pipeline
// golden grid; the seed varies schema, query shapes, and costs.
func synthBatchWorkload(t *testing.T, seed int64) *WorkloadSet {
	t.Helper()
	w, err := Synthesize(SynthSpec{
		Name:       fmt.Sprintf("batch-%d", seed),
		Seed:       seed,
		NumTables:  8,
		NumQueries: 12,
		ScansMean:  2.5, ScansJitter: 1,
		FiltersMean: 1.5,
		TablePool:   8,
		RowsMin:     10_000, RowsMax: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenResult renders everything a run must reproduce bit for bit as one
// tab-separated line: the configuration, the improvement's float64 bits,
// the budget and trace counters, the stop accounting, and — at Workers = 1,
// where the event stream is a pure function of the seed — the SHA-256 of the
// JSONL trace stream ("-" otherwise).
func goldenResult(r *Result, events []byte, workers int) string {
	ids := make([]string, len(r.Indexes))
	for i, ix := range r.Indexes {
		ids[i] = ix.ID()
	}
	stream := "-"
	if workers == 1 {
		sum := sha256.Sum256(events)
		stream = hex.EncodeToString(sum[:])
	}
	return strings.Join([]string{
		strings.Join(ids, ";"),
		fmt.Sprintf("imp=%016x", math.Float64bits(r.ImprovementPct)),
		fmt.Sprintf("calls=%d", r.WhatIfCalls),
		fmt.Sprintf("hits=%d", r.CacheHits),
		fmt.Sprintf("bound=%d", r.DerivedBoundHits),
		fmt.Sprintf("stop=%v/%016x/%d", r.EarlyStopped, math.Float64bits(r.StopGap), r.RefundedBudget),
		fmt.Sprintf("trace=%d/%d/%d/%d", r.Trace.CacheHits, r.Trace.DerivedBoundHits, r.Trace.Commits, r.Trace.DerivedFallbacks),
		"stream=" + stream,
	}, "\t")
}

// readGolden loads a "name<TAB>line" table; missing files read as empty.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "\t")
		out[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeGolden stores got as a sorted "name<TAB>line" table under header.
func writeGolden(t *testing.T, path, header string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(header)
	for _, name := range names {
		b.WriteString(name + "\t" + got[name] + "\n")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenRun tunes w under opts with the JSONL event stream captured, checks
// the trace spend invariant (per-phase spend sums to WhatIfCalls), and
// returns the run's golden line.
func goldenRun(t *testing.T, w *WorkloadSet, opts Options) string {
	t.Helper()
	var events bytes.Buffer
	opts.TraceEvents = &events
	r, err := Tune(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("Result.Trace nil with TraceEvents set")
	}
	if spent := r.Trace.SpendTotal(); spent != r.WhatIfCalls {
		t.Errorf("traced spend %d != WhatIfCalls %d (by phase: %v)",
			spent, r.WhatIfCalls, r.Trace.SpendByPhase)
	}
	return goldenResult(r, events.Bytes(), opts.SessionWorkers)
}

// TestBatchScalarBitIdentical pins the charging pipeline's observable
// behaviour across enumerators, worker counts, and the interception/early-
// stop epsilons against golden digests recorded while the scalar per-pair
// path still existed and was verified bit-identical to the batched one: the
// same configuration, improvement, budget accounting (WhatIfCalls,
// CacheHits, DerivedBoundHits), stop decision, trace counters, and — at
// Workers = 1 — the byte-identical JSONL trace stream. Every run must also
// preserve the trace spend invariant (per-phase spend sums to WhatIfCalls).
func TestBatchScalarBitIdentical(t *testing.T) {
	workloads := []struct {
		name string
		w    *WorkloadSet
	}{
		{"tpch", Workload("tpch")},
		{"synth11", synthBatchWorkload(t, 11)},
	}
	epsCases := []struct {
		name   string
		derive float64
		stop   float64
	}{
		{"plain", 0, 0},
		{"derive", 0.05, 0},
		{"stop", 0, 0.1},
		{"derive+stop", 0.05, 0.1},
	}
	want := readGolden(t, batchGoldenPath)
	got := make(map[string]string)
	for _, wl := range workloads {
		for _, alg := range []string{AlgorithmMCTS, AlgorithmVanilla, AlgorithmTwoPhase, AlgorithmAutoAdmin} {
			for _, workers := range []int{1, 4} {
				for _, ec := range epsCases {
					name := fmt.Sprintf("%s/%s/w%d/%s", wl.name, alg, workers, ec.name)
					t.Run(name, func(t *testing.T) {
						line := goldenRun(t, wl.w, Options{
							K: 5, Budget: 150, Seed: 7,
							Algorithm:      alg,
							SessionWorkers: workers,
							DeriveEpsilon:  ec.derive,
							StopEpsilon:    ec.stop,
						})
						got[name] = line
						if !*updateGolden && line != want[name] {
							t.Errorf("diverged from %s:\n  want: %s\n  got:  %s", batchGoldenPath, want[name], line)
						}
					})
				}
			}
		}
	}
	if *updateGolden && !t.Failed() {
		writeGolden(t, batchGoldenPath,
			"# TestBatchScalarBitIdentical golden: name, config, improvement bits, counters, stop accounting, trace counters, Workers=1 stream SHA-256.\n", got)
	}
}

// mctsGoldenPath holds one line per case of TestMCTSEpisodeLoopGolden.
const mctsGoldenPath = "testdata/mcts_golden.tsv"

// TestMCTSEpisodeLoopGolden pins MCTS at operating points the B=150 grid of
// TestBatchScalarBitIdentical never reaches: TPC-H at K=10, B=5000, where
// the early-stopping rule fires mid-search, and TPC-DS at K=10, B=1500,
// where the search spends its whole budget. Each case must reproduce the
// recorded configuration, improvement bits, budget and stop accounting,
// trace counters and — at Workers = 1 — the JSONL stream SHA-256.
func TestMCTSEpisodeLoopGolden(t *testing.T) {
	cases := []struct {
		workload string
		budget   int
		eps      string
		derive   float64
	}{
		{"tpch", 5000, "stop", 0},
		{"tpch", 5000, "derive+stop", 0.05},
		{"tpcds", 1500, "derive+stop", 0.05},
	}
	want := readGolden(t, mctsGoldenPath)
	got := make(map[string]string)
	for _, c := range cases {
		w := Workload(c.workload)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/mcts/k10/b%d/w%d/%s", c.workload, c.budget, workers, c.eps)
			t.Run(name, func(t *testing.T) {
				line := goldenRun(t, w, Options{
					K: 10, Budget: c.budget, Seed: 7,
					Algorithm:      AlgorithmMCTS,
					SessionWorkers: workers,
					DeriveEpsilon:  c.derive,
					StopEpsilon:    0.1,
				})
				got[name] = line
				if !*updateGolden && line != want[name] {
					t.Errorf("diverged from %s:\n  want: %s\n  got:  %s", mctsGoldenPath, want[name], line)
				}
			})
		}
	}
	if *updateGolden && !t.Failed() {
		writeGolden(t, mctsGoldenPath,
			"# TestMCTSEpisodeLoopGolden golden: name, config, improvement bits, counters, stop accounting, trace counters, Workers=1 stream SHA-256.\n", got)
	}
}
