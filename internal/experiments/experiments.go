// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendices B-C). Each experiment function
// returns a Figure containing the same panels/series the paper plots; the
// cmd/experiments binary and the root bench suite call into this package.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"indextune/internal/bandit"
	"indextune/internal/candgen"
	"indextune/internal/core"
	"indextune/internal/dqn"
	"indextune/internal/dta"
	"indextune/internal/greedy"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Seeds is the number of RNG seeds for randomized algorithms (the paper
	// uses 5).
	Seeds int
	// Scale divides every budget, for quick runs (1 = full fidelity).
	Scale int
	// SessionWorkers sets intra-session MCTS parallelism (the pipelined
	// episode evaluation of internal/core) for every tuning run. 0 or 1
	// keeps one episode in flight, as all paper figures do; N > 1 changes
	// MCTS results deterministically in (seed, N).
	SessionWorkers int
	// TraceDir, when non-empty, writes one trace event stream (JSONL) and
	// one summary JSON per tuning run into the directory, named
	// <workload>_<algorithm>_k<K>_b<budget>_seed<seed>. File errors are
	// reported on stderr and skip tracing for that run; they never abort
	// the experiment.
	TraceDir string
	// DeriveEpsilon enables Wii-style bound interception in every tuning
	// session (see search.Session.DeriveEpsilon). 0 keeps results
	// bit-identical to the uninstrumented sessions of all paper figures.
	DeriveEpsilon float64
	// StopEpsilon enables Esc-style early stopping in every tuning session
	// (see search.Session.StopEpsilon): a run terminates once the bound on
	// its best possible remaining improvement falls to this fraction of the
	// baseline cost, refunding the unspent budget. 0 keeps every run
	// spending its full budget, bit-identical to the paper figures.
	StopEpsilon float64
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 5
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// forEach runs fn(0..n-1) on up to parallel goroutines and waits for all.
// The figures fan their budget points over GOMAXPROCS goroutines: every run
// owns its session while sharing one concurrency-safe what-if oracle, so
// results are independent of the degree of parallelism.
func forEach(n, parallel int, fn func(i int)) {
	if parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Quick is a reduced-fidelity configuration for tests and benchmarks.
var Quick = Config{Seeds: 2, Scale: 10}

// Full is the paper-fidelity configuration.
var Full = Config{Seeds: 5, Scale: 1}

// Budgets returns the paper's budget sweep for a workload (small workloads
// use 50..1000, large ones 1000..5000), divided by the config scale.
func (c Config) Budgets(wname string) []int {
	var base []int
	switch wname {
	case "TPC-H", "JOB":
		base = []int{50, 100, 200, 500, 1000}
	default:
		base = []int{1000, 2000, 3000, 4000, 5000}
	}
	out := make([]int, len(base))
	for i, b := range base {
		v := b / c.Scale
		if v < 10 {
			v = 10
		}
		out[i] = v
	}
	return out
}

// Ks is the paper's cardinality-constraint sweep.
var Ks = []int{5, 10, 20}

// runner caches a generated workload, its candidate set, AND one shared
// what-if oracle across all runs of a figure. The optimizer's sharded cost
// cache is concurrency-safe and free of per-run state — budgets, call/hit
// counters, and simulated time all live on each search.Session — so reusing
// it across (algorithm, K, budget, seed) runs changes only wall-clock time,
// never results: every run is charged as if it had asked the optimizer
// fresh, while identical (query, config) costs are computed once instead of
// thousands of times across the figure suite.
type runner struct {
	w        *workload.Workload
	cands    *candgen.Result
	opt      *whatif.Optimizer
	workers  int     // intra-session parallelism applied to every session
	wname    string  // workload name, for trace file naming
	traceDir string  // per-run trace output directory ("" = tracing off)
	eps      float64 // DeriveEpsilon applied to every session
	stopEps  float64 // StopEpsilon applied to every session
}

func newRunner(cfg Config, wname string) *runner {
	w := workload.ByName(wname)
	if w == nil {
		// invariant: figure functions only pass the compile-time workload
		// names of Table 1; user-supplied experiment ids are validated by ByID.
		panic(fmt.Sprintf("experiments: unknown workload %q", wname))
	}
	cands := candgen.Generate(w, candgen.Options{})
	return &runner{
		w: w, cands: cands, opt: search.NewOptimizer(w, cands),
		workers: cfg.SessionWorkers, wname: wname, traceDir: cfg.TraceDir,
		eps: cfg.DeriveEpsilon, stopEps: cfg.StopEpsilon,
	}
}

// session builds a fresh budget-metered session over the shared oracle.
func (r *runner) session(k, budget int, seed int64, storage int64) *search.Session {
	s := search.NewSession(r.w, r.cands, r.opt, k, budget, seed)
	s.StorageLimit = storage
	s.Workers = r.workers
	s.DeriveEpsilon = r.eps
	s.StopEpsilon = r.stopEps
	return s
}

// run executes one algorithm once and returns the oracle improvement (%).
func (r *runner) run(alg search.Algorithm, k, budget int, seed int64, storage int64) search.Result {
	s := r.session(k, budget, seed, storage)
	if r.traceDir == "" {
		return search.Run(alg, s)
	}
	base := traceFileName(r.wname, alg.Name(), k, budget, seed)
	f, err := os.Create(filepath.Join(r.traceDir, base+".jsonl"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", err)
		return search.Run(alg, s)
	}
	rec := trace.New(f)
	s.Trace = rec
	res := search.Run(alg, s)
	if err := rec.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", err)
	}
	sf, err := os.Create(filepath.Join(r.traceDir, base+".summary.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", err)
		return res
	}
	werr := trace.WriteSummary(sf, rec.Summary(res.Algorithm, budget))
	if cerr := sf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace:", werr)
	}
	return res
}

// traceFileName builds a filesystem-safe per-run trace file stem.
func traceFileName(wname, alg string, k, budget int, seed int64) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
				return r
			default:
				return '-'
			}
		}, s)
	}
	return fmt.Sprintf("%s_%s_k%d_b%d_seed%d", clean(wname), clean(alg), k, budget, seed)
}

// runSeeds runs a (possibly randomized) algorithm over several seeds in
// parallel and returns mean and stddev of the improvement, plus the mean
// number of charged what-if calls — the cost side of the
// improvement-at-equal-spend comparisons bound interception enables.
func (r *runner) runSeeds(alg search.Algorithm, k, budget, seeds int, storage int64) (mean, std, calls float64) {
	return r.runSeedsN(alg, k, budget, seeds, storage, runtime.GOMAXPROCS(0))
}

func (r *runner) runSeedsN(alg search.Algorithm, k, budget, seeds int, storage int64, parallel int) (mean, std, calls float64) {
	vals := make([]float64, seeds)
	callCounts := make([]float64, seeds)
	forEach(seeds, parallel, func(i int) {
		res := r.run(alg, k, budget, int64(1000+i*7919), storage)
		vals[i] = res.ImprovementPct
		callCounts[i] = float64(res.WhatIfCalls)
	})
	mean, std = meanStd(vals)
	calls, _ = meanStd(callCounts)
	return mean, std, calls
}

func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std
}

// greedyVariants are the three budget-aware greedy baselines of Section 4.2.
func greedyVariants() []search.Algorithm {
	return []search.Algorithm{greedy.Vanilla{}, greedy.TwoPhase{}, greedy.AutoAdmin{}}
}

// mctsDefault is the paper's recommended MCTS setting.
func mctsDefault() search.Algorithm { return core.Default() }

// budgetLabel renders an x-axis label "B(minutes)" like the paper's axes.
// The minute conversion uses search.TuningTimeFactor so the label matches
// the simulated time search.Run reports per budgeted call (PerCallTime plus
// the non-what-if overhead).
func budgetLabel(wname string, budget int) string {
	perCall := search.PerCallLatency(wname)
	mins := time.Duration(float64(budget)*float64(perCall)*search.TuningTimeFactor()) / time.Minute
	return fmt.Sprintf("%d(%d)", budget, int(mins))
}

// GreedyComparison builds one greedy-vs-MCTS figure panel set (Figures 8-10,
// 16-17): per K, improvement vs budget for the three greedy variants and
// MCTS.
func GreedyComparison(cfg Config, wname string) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	fig := &Figure{Caption: fmt.Sprintf("End-to-end comparison on %s with budget-aware Greedy variants", wname)}
	budgets := cfg.Budgets(wname)
	for _, k := range Ks {
		k := k
		panel := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls, minutes)", YLabel: "Improvement (%)"}
		for _, alg := range greedyVariants() {
			alg := alg
			series := Series{Label: alg.Name(), Points: make([]Point, len(budgets))}
			forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
				res := r.run(alg, k, budgets[bi], 1, 0)
				series.Points[bi] = Point{X: budgetLabel(wname, budgets[bi]), Mean: res.ImprovementPct, Calls: float64(res.WhatIfCalls)}
			})
			panel.Series = append(panel.Series, series)
		}
		series := Series{Label: "MCTS Greedy", Points: make([]Point, len(budgets))}
		forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
			mean, std, calls := r.runSeedsN(mctsDefault(), k, budgets[bi], cfg.Seeds, 0, 1)
			series.Points[bi] = Point{X: budgetLabel(wname, budgets[bi]), Mean: mean, Std: std, Calls: calls}
		})
		panel.Series = append(panel.Series, series)
		fig.Panels = append(fig.Panels, panel)
	}
	return fig
}

// RLComparison builds one RL-baselines figure panel set (Figures 11-13,
// 18-19): per K, improvement vs budget for DBA bandits, No DBA, and MCTS.
func RLComparison(cfg Config, wname string) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	fig := &Figure{Caption: fmt.Sprintf("End-to-end comparison on %s with existing RL approaches", wname)}
	budgets := cfg.Budgets(wname)
	for _, k := range Ks {
		k := k
		panel := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls, minutes)", YLabel: "Improvement (%)"}
		for _, alg := range []search.Algorithm{bandit.DBABandits{}, dqn.NoDBA{}} {
			alg := alg
			series := Series{Label: alg.Name(), Points: make([]Point, len(budgets))}
			forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
				res := r.run(alg, k, budgets[bi], 1, 0)
				series.Points[bi] = Point{X: budgetLabel(wname, budgets[bi]), Mean: res.ImprovementPct, Calls: float64(res.WhatIfCalls)}
			})
			panel.Series = append(panel.Series, series)
		}
		series := Series{Label: "MCTS", Points: make([]Point, len(budgets))}
		forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
			mean, std, calls := r.runSeedsN(mctsDefault(), k, budgets[bi], cfg.Seeds, 0, 1)
			series.Points[bi] = Point{X: budgetLabel(wname, budgets[bi]), Mean: mean, Std: std, Calls: calls}
		})
		panel.Series = append(panel.Series, series)
		fig.Panels = append(fig.Panels, panel)
	}
	return fig
}

// Convergence builds a Figure-14/21-style per-round convergence panel for
// one workload: improvement of the best configuration found by DBA bandits
// and No DBA after each round, with the MCTS average as reference.
func Convergence(cfg Config, wname string, k, budget int) Panel {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	b := budget / cfg.Scale
	if b < 10 {
		b = 10
	}

	var banditTraj []float64
	r.run(bandit.DBABandits{Trajectory: &banditTraj}, k, b, 1, 0)
	var dqnTraj []float64
	r.run(dqn.NoDBA{Trajectory: &dqnTraj}, k, b, 1, 0)
	mctsMean, _, _ := r.runSeeds(mctsDefault(), k, b, cfg.Seeds, 0)

	panel := Panel{
		Title:  fmt.Sprintf("%s, K = %d, B = %d", wname, k, b),
		XLabel: "Round", YLabel: "Improvement (%)",
	}
	toSeries := func(label string, traj []float64) Series {
		s := Series{Label: label}
		for i, v := range traj {
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%d", i+1), Mean: v})
		}
		return s
	}
	panel.Series = append(panel.Series, toSeries("DBA Bandits", banditTraj))
	panel.Series = append(panel.Series, toSeries("No DBA", dqnTraj))
	rounds := len(banditTraj)
	if len(dqnTraj) > rounds {
		rounds = len(dqnTraj)
	}
	if rounds == 0 {
		rounds = 1
	}
	mcts := Series{Label: "MCTS (avg)"}
	for i := 0; i < rounds; i++ {
		mcts.Points = append(mcts.Points, Point{X: fmt.Sprintf("%d", i+1), Mean: mctsMean})
	}
	panel.Series = append(panel.Series, mcts)
	return panel
}

// DTAComparison builds a Figure-15/20-style panel: improvement vs budget for
// DTA (given matching virtual tuning time) and MCTS, per K, with or without
// the storage constraint (3× database size).
func DTAComparison(cfg Config, wname string, withSC bool) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	sc := ""
	var storage int64
	if withSC {
		sc = "with SC"
		storage = 3 * r.w.DB.SizeBytes()
	} else {
		sc = "without SC"
	}
	fig := &Figure{Caption: fmt.Sprintf("Comparison vs DTA on %s, %s", wname, sc)}
	panel := Panel{Title: sc, XLabel: "budget (what-if calls, minutes)", YLabel: "Improvement (%)"}
	perCall := search.PerCallLatency(wname)
	budgets := cfg.Budgets(wname)
	for _, k := range Ks {
		k := k
		dtaSeries := Series{Label: fmt.Sprintf("DTA (K=%d)", k), Points: make([]Point, len(budgets))}
		mctsSeries := Series{Label: fmt.Sprintf("MCTS (K=%d)", k), Points: make([]Point, len(budgets))}
		forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
			b := budgets[bi]
			timeBudget := time.Duration(float64(b) * float64(perCall) * search.TuningTimeFactor())
			res := dta.Tune(r.w, dta.Options{TimeBudget: timeBudget, K: k, StorageLimit: storage, Seed: int64(b)})
			dtaSeries.Points[bi] = Point{X: budgetLabel(wname, b), Mean: res.ImprovementPct, Calls: float64(res.WhatIfCalls)}
			mean, std, calls := r.runSeedsN(mctsDefault(), k, b, cfg.Seeds, storage, 1)
			mctsSeries.Points[bi] = Point{X: budgetLabel(wname, b), Mean: mean, Std: std, Calls: calls}
		})
		panel.Series = append(panel.Series, dtaSeries, mctsSeries)
	}
	fig.Panels = append(fig.Panels, panel)
	return fig
}

// Ablation builds a Figure-22/23-style panel set for one workload: the four
// policy combinations {UCT, Prior} × {BCE(-Only), +Greedy(BG)} under fixed-
// or randomized-step rollout.
func Ablation(cfg Config, wname string, randomStep bool) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	roll := core.RolloutFixedStep
	name := "fixed step size"
	if randomStep {
		roll = core.RolloutRandomStep
		name = "randomized step size"
	}
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"UCT Only", core.Options{Policy: core.PolicyUCT, Rollout: roll, Extraction: core.ExtractBCE}},
		{"UCT + Greedy", core.Options{Policy: core.PolicyUCT, Rollout: roll, Extraction: core.ExtractBG}},
		{"Prior Only", core.Options{Policy: core.PolicyPrior, Rollout: roll, Extraction: core.ExtractBCE}},
		{"Prior + Greedy", core.Options{Policy: core.PolicyPrior, Rollout: roll, Extraction: core.ExtractBG}},
	}
	fig := &Figure{Caption: fmt.Sprintf("MCTS policy ablation on %s with %s rollout", wname, name)}
	for _, k := range Ks {
		panel := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls)", YLabel: "Improvement (%)"}
		for _, v := range variants {
			series := Series{Label: v.label}
			for _, b := range cfg.Budgets(wname) {
				mean, std, calls := r.runSeeds(core.MCTS{Opts: v.opts}, k, b, cfg.Seeds, 0)
				series.Points = append(series.Points, Point{X: fmt.Sprintf("%d", b), Mean: mean, Std: std, Calls: calls})
			}
			panel.Series = append(panel.Series, series)
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig
}

// PolicyExtensions is an ablation beyond the paper: the proposed ε-greedy
// prior policy against Boltzmann exploration (Section 6.1.2's starting
// point), RAVE-augmented priors (the Section 8 suggestion), and uniform
// selection (the convergence baseline of [48]). One panel per K on the
// given workload.
func PolicyExtensions(cfg Config, wname string) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, wname)
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"Prior (paper)", core.Default().Opts},
		{"Boltzmann", core.Options{Policy: core.PolicyBoltzmann, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}},
		{"Prior + RAVE", core.Options{Policy: core.PolicyPrior, RAVE: true, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}},
		{"Uniform", core.Options{Policy: core.PolicyUniform, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}},
	}
	fig := &Figure{Caption: fmt.Sprintf("Extended policy ablation on %s (beyond the paper)", wname)}
	budgets := cfg.Budgets(wname)
	for _, k := range Ks {
		k := k
		panel := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls)", YLabel: "Improvement (%)"}
		for _, v := range variants {
			v := v
			series := Series{Label: v.label, Points: make([]Point, len(budgets))}
			forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
				mean, std, calls := r.runSeedsN(core.MCTS{Opts: v.opts}, k, budgets[bi], cfg.Seeds, 0, 1)
				series.Points[bi] = Point{X: fmt.Sprintf("%d", budgets[bi]), Mean: mean, Std: std, Calls: calls}
			})
			panel.Series = append(panel.Series, series)
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig
}

// EarlyStopping is an experiment beyond the paper: for each algorithm it
// compares a full-budget run (StopEpsilon = 0, the paper's behavior) against
// the same run with Esc-style early stopping enabled, across a budget sweep
// reaching well past the point of diminishing returns. The Calls column
// carries the charged what-if calls, so the CSV shows the charged-call
// reduction early stopping buys at equal (or better) oracle improvement.
func EarlyStopping(cfg Config, wname string) *Figure {
	cfg = cfg.withDefaults()
	epsOn := cfg.StopEpsilon
	if epsOn <= 0 {
		epsOn = search.DefaultStopEpsilon
	}
	r := newRunner(cfg, wname)
	fig := &Figure{Caption: fmt.Sprintf("Early stopping on derived cost bounds on %s (beyond the paper)", wname)}
	// Budgets reach 5x the workload's usual sweep: early stopping matters
	// exactly where the budget outlives the remaining improvement headroom.
	base := []int{500, 1000, 2000, 5000}
	budgets := make([]int, len(base))
	for i, b := range base {
		if v := b / cfg.Scale; v >= 10 {
			budgets[i] = v
		} else {
			budgets[i] = 10
		}
	}
	const k = 10
	panel := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls)", YLabel: "Improvement (%)"}
	algs := []search.Algorithm{greedy.TwoPhase{}, greedy.AutoAdmin{}, mctsDefault()}
	for _, alg := range algs {
		alg := alg
		for _, eps := range []float64{0, epsOn} {
			// Series are run strictly one after another, so retargeting the
			// shared runner's per-session StopEpsilon between them is safe.
			r.stopEps = eps
			label := fmt.Sprintf("%s (ε=%g)", alg.Name(), eps)
			series := Series{Label: label, Points: make([]Point, len(budgets))}
			forEach(len(budgets), runtime.GOMAXPROCS(0), func(bi int) {
				mean, std, calls := r.runSeedsN(alg, k, budgets[bi], cfg.Seeds, 0, 1)
				series.Points[bi] = Point{X: fmt.Sprintf("%d", budgets[bi]), Mean: mean, Std: std, Calls: calls}
			})
			panel.Series = append(panel.Series, series)
		}
	}
	fig.Panels = append(fig.Panels, panel)
	return fig
}

// TuningTimeSplit reproduces Figure 2: the split of (simulated) tuning time
// between what-if calls and other work when running budget-aware greedy on
// TPC-DS with K = 20 across budgets.
func TuningTimeSplit(cfg Config) *Figure {
	cfg = cfg.withDefaults()
	r := newRunner(cfg, "TPC-DS")
	fig := &Figure{Caption: "Tuning time split on TPC-DS (greedy, K = 20)"}
	panel := Panel{Title: "K = 20", XLabel: "# of what-if calls", YLabel: "Time (minutes)"}
	whatIf := Series{Label: "Time spent on what-if calls"}
	other := Series{Label: "Other time spent on index tuning"}
	for _, b := range cfg.Budgets("TPC-DS") {
		res := search.Run(greedy.Vanilla{}, r.session(20, b, 1, 0))
		x := fmt.Sprintf("%d", b)
		whatIf.Points = append(whatIf.Points, Point{X: x, Mean: res.WhatIfTime.Minutes()})
		other.Points = append(other.Points, Point{X: x, Mean: (res.TuningTime - res.WhatIfTime).Minutes()})
	}
	panel.Series = append(panel.Series, whatIf, other)
	fig.Panels = append(fig.Panels, panel)
	return fig
}

// WorkloadStats reproduces Table 1.
func WorkloadStats() *Figure {
	fig := &Figure{Caption: "Summary of database and workload statistics (Table 1)"}
	panel := Panel{Title: "Table 1", XLabel: "workload", YLabel: "value"}
	var size, nq, nt, aj, af, as Series
	size.Label, nq.Label, nt.Label = "Size (GB)", "# Queries", "# Tables"
	aj.Label, af.Label, as.Label = "Avg # Joins", "Avg # Filters", "Avg # Scans"
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		st := w.ComputeStats()
		size.Points = append(size.Points, Point{X: st.Name, Mean: float64(st.SizeBytes) / (1 << 30)})
		nq.Points = append(nq.Points, Point{X: st.Name, Mean: float64(st.NumQueries)})
		nt.Points = append(nt.Points, Point{X: st.Name, Mean: float64(st.NumTables)})
		aj.Points = append(aj.Points, Point{X: st.Name, Mean: st.AvgJoins})
		af.Points = append(af.Points, Point{X: st.Name, Mean: st.AvgFilters})
		as.Points = append(as.Points, Point{X: st.Name, Mean: st.AvgScans})
	}
	panel.Series = append(panel.Series, size, nq, nt, aj, af, as)
	fig.Panels = append(fig.Panels, panel)
	return fig
}
