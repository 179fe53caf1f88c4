// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendices B-C). The specs table in registry.go
// declares every experiment once; ByID builds its Figure, with the same
// panels/series the paper plots, for the cmd/experiments binary and the
// root bench suite.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
	// <workload>_<algorithm>_k<K>_b<budget>_seed<seed>, then _eps<ε> for a
	// stop ε, _sc<bytes> for a storage limit and _rollout-random or
	// _step<n> for an MCTS rollout other than the default, then _run<n>
	// for the n-th run of this process with the same name (budget points
	// that scale to one value, a run two figures share). File errors are
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

// Quick is a reduced-fidelity configuration for tests and benchmarks.
var Quick = Config{Seeds: 2, Scale: 10}

// Full is the paper-fidelity configuration.
var Full = Config{Seeds: 5, Scale: 1}

// budgets returns the paper's budget sweep for a workload (small workloads
// use 50..1000, large ones 1000..5000), scaled.
func (c Config) budgets(wname string) []int {
	switch wname {
	case "TPC-H", "JOB":
		return c.scaled(50, 100, 200, 500, 1000)
	default:
		return c.scaled(1000, 2000, 3000, 4000, 5000)
	}
}

// scaled divides each paper budget by the config scale, keeping at least
// 10 what-if calls.
func (c Config) scaled(base ...int) []int {
	out := make([]int, len(base))
	for i, b := range base {
		out[i] = max(b/c.Scale, 10)
	}
	return out
}

// ks is the paper's cardinality-constraint sweep.
var ks = []int{5, 10, 20}

// runner caches a generated workload, its candidate set, AND one shared
// what-if oracle across all runs of a figure. The optimizer's sharded cost
// cache is concurrency-safe and free of per-run state — budgets, call/hit
// counters, and simulated time all live on each search.Session — so reusing
// it across (algorithm, K, budget, seed) runs changes only wall-clock time,
// never results: every run is charged as if it had asked the optimizer
// fresh, while identical (query, config) costs are computed once instead of
// thousands of times across the figure suite. A shallow copy shares the
// oracle and may carry its own cfg.
type runner struct {
	w     *workload.Workload
	cands *candgen.Result
	opt   *whatif.Optimizer
	wname string // workload name, for budgets, labels and trace file naming
	cfg   Config // seeds, budget scale, and the knobs applied to every session
}

func newRunner(cfg Config, wname string) *runner {
	w := workload.ByName(wname)
	if w == nil {
		// invariant: specs only names the compile-time workloads of
		// Table 1; user-supplied experiment ids are validated by ByID.
		panic(fmt.Sprintf("experiments: unknown workload %q", wname))
	}
	cands := candgen.Generate(w, candgen.Options{})
	return &runner{w: w, cands: cands, opt: search.NewOptimizer(w, cands), wname: wname, cfg: cfg.withDefaults()}
}

// session builds a fresh budget-metered session over the shared oracle.
func (r *runner) session(k, budget int, seed int64, storage int64) *search.Session {
	s := search.NewSession(r.w, r.cands, r.opt, k, budget, seed)
	s.StorageLimit = storage
	s.Workers = r.cfg.SessionWorkers
	s.DeriveEpsilon = r.cfg.DeriveEpsilon
	s.StopEpsilon = r.cfg.StopEpsilon
	return s
}

// run executes one algorithm once and returns the oracle improvement (%).
func (r *runner) run(alg search.Algorithm, k, budget int, seed int64, storage int64) search.Result {
	s := r.session(k, budget, seed, storage)
	if r.cfg.TraceDir == "" {
		return search.Run(alg, s)
	}
	base := claimTraceStem(r.cfg.TraceDir, traceFileName(r.wname, alg.Name(), k, budget, seed)+r.traceVariant(alg, storage))
	f, err := os.Create(base + ".jsonl")
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
	sf, err := os.Create(base + ".summary.json")
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

// traceVariant names the settings that set a run apart beyond
// traceFileName's fields: a stop ε, a storage limit, and an MCTS rollout
// other than the default's.
func (r *runner) traceVariant(alg search.Algorithm, storage int64) string {
	var v string
	if r.cfg.StopEpsilon > 0 {
		v += "_eps" + strconv.FormatFloat(r.cfg.StopEpsilon, 'g', -1, 64)
	}
	if storage > 0 {
		v += "_sc" + strconv.FormatInt(storage, 10)
	}
	if m, ok := alg.(core.MCTS); ok {
		switch {
		case m.Opts.Rollout == core.RolloutRandomStep:
			v += "_rollout-random"
		case m.Opts.FixedStep != 0:
			v += "_step" + strconv.Itoa(m.Opts.FixedStep)
		}
	}
	return v
}

// traceStems holds every trace path stem this process has claimed.
var traceStems = struct {
	sync.Mutex
	taken map[string]bool
}{taken: map[string]bool{}}

// claimTraceStem returns the path stem of a new run's trace files in dir:
// dir/name, or dir/name_run<n> when n−1 runs of this process already
// claimed the name. Runs that share a name have the same parameters, and
// so write the same streams, whichever claims first.
func claimTraceStem(dir, name string) string {
	traceStems.Lock()
	defer traceStems.Unlock()
	stem := filepath.Join(dir, name)
	for n := 2; traceStems.taken[stem]; n++ {
		stem = filepath.Join(dir, name+"_run"+strconv.Itoa(n))
	}
	traceStems.taken[stem] = true
	return stem
}

// runSeeds runs a (possibly randomized) algorithm once per configured seed,
// one after another, and returns the mean and stddev of the improvement,
// plus the mean number of charged what-if calls — the cost side of the
// improvement-at-equal-spend comparisons bound interception enables. The
// sweeps fan their budget points out instead (budgetSeries).
func (r *runner) runSeeds(alg search.Algorithm, k, budget int, storage int64) Point {
	vals := make([]float64, r.cfg.Seeds)
	callCounts := make([]float64, r.cfg.Seeds)
	for i := range vals {
		res := r.run(alg, k, budget, int64(1000+i*7919), storage)
		vals[i] = res.ImprovementPct
		callCounts[i] = float64(res.WhatIfCalls)
	}
	var p Point
	p.Mean, p.Std = meanStd(vals)
	p.Calls, _ = meanStd(callCounts)
	return p
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

// tuningTime is the simulated tuning time a budget buys on the workload:
// search.Run's per-call time (PerCallTime plus the non-what-if overhead)
// for every budgeted call.
func (r *runner) tuningTime(budget int) time.Duration {
	return time.Duration(float64(budget) * float64(search.PerCallLatency(r.wname)) * search.TuningTimeFactor())
}

// budgetLabel renders an x-axis label "B(minutes)" like the paper's axes.
func (r *runner) budgetLabel(budget int) string {
	return fmt.Sprintf("%d(%d)", budget, int(r.tuningTime(budget)/time.Minute))
}

// budgetSeries measures one series at every budget, fanning the points over
// GOMAXPROCS goroutines: every run owns its session while sharing the
// runner's concurrency-safe oracle, so results are independent of the
// degree of parallelism. x labels each point.
func budgetSeries(label string, budgets []int, x func(int) string, at func(budget int) Point) Series {
	s := Series{Label: label, Points: make([]Point, len(budgets))}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s.Points[i] = at(b)
			s.Points[i].X = x(b)
		}()
	}
	wg.Wait()
	return s
}

// line is one series of a budgetSweep: its label and how the point at
// cardinality k and budget b is measured.
type line struct {
	label string
	at    func(r *runner, k, b int) Point
}

// once plots alg from one run at seed 1, as the paper plots its baselines.
func once(alg search.Algorithm) line {
	return line{alg.Name(), func(r *runner, k, b int) Point {
		res := r.run(alg, k, b, 1, 0)
		return Point{Mean: res.ImprovementPct, Calls: float64(res.WhatIfCalls)}
	}}
}

// averaged plots alg's mean and spread over the configured seeds.
func averaged(label string, alg search.Algorithm) line {
	return line{label, func(r *runner, k, b int) Point { return r.runSeeds(alg, k, b, 0) }}
}

// budgetSweep plots improvement against the workload's budget sweep, one
// panel per K in ks with one series per line. It is both the
// baselines-vs-MCTS sweep (Figures 8-13, 16-19) and the MCTS-variants
// sweep (Figures 22-23, the policies extension); minutes labels each budget
// with the tuning time it buys, as the end-to-end figures do.
func budgetSweep(minutes bool, lines ...line) sweep {
	return func(r *runner) []Panel {
		xlabel, x := "budget (what-if calls)", strconv.Itoa
		if minutes {
			xlabel, x = "budget (what-if calls, minutes)", r.budgetLabel
		}
		budgets := r.cfg.budgets(r.wname)
		var panels []Panel
		for _, k := range ks {
			p := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: xlabel, YLabel: "Improvement (%)"}
			for _, l := range lines {
				p.Series = append(p.Series, budgetSeries(l.label, budgets, x, func(b int) Point { return l.at(r, k, b) }))
			}
			panels = append(panels, p)
		}
		return panels
	}
}

// vsGreedy compares MCTS with the three budget-aware greedy variants of
// Section 4.2 (Figures 8-10, 16-17).
var vsGreedy = budgetSweep(true,
	once(greedy.Vanilla{}), once(greedy.TwoPhase{}), once(greedy.AutoAdmin{}),
	averaged("MCTS Greedy", core.Default()))

// vsRL compares MCTS with DBA bandits and No DBA (Figures 11-13, 18-19).
var vsRL = budgetSweep(true, once(bandit.DBABandits{}), once(dqn.NoDBA{}), averaged("MCTS", core.Default()))

// ablation is the sweep of Figures 22-23: the four policy combinations
// {UCT, Prior} × {BCE(-Only), +Greedy(BG)} under the given rollout.
func ablation(roll core.RolloutKind) sweep {
	mcts := func(p core.Policy, e core.Extraction) core.MCTS {
		return core.MCTS{Opts: core.Options{Policy: p, Rollout: roll, Extraction: e}}
	}
	return budgetSweep(false,
		averaged("UCT Only", mcts(core.PolicyUCT, core.ExtractBCE)),
		averaged("UCT + Greedy", mcts(core.PolicyUCT, core.ExtractBG)),
		averaged("Prior Only", mcts(core.PolicyPrior, core.ExtractBCE)),
		averaged("Prior + Greedy", mcts(core.PolicyPrior, core.ExtractBG)))
}

// policyVariants is an ablation beyond the paper: the proposed ε-greedy
// prior policy against Boltzmann exploration (Section 6.1.2's starting
// point), RAVE-augmented priors (the Section 8 suggestion), and uniform
// selection (the convergence baseline of [48]).
var policyVariants = budgetSweep(false,
	averaged("Prior (paper)", core.Default()),
	averaged("Boltzmann", core.MCTS{Opts: core.Options{Policy: core.PolicyBoltzmann, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}}),
	averaged("Prior + RAVE", core.MCTS{Opts: core.Options{Policy: core.PolicyPrior, RAVE: true, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}}),
	averaged("Uniform", core.MCTS{Opts: core.Options{Policy: core.PolicyUniform, Rollout: core.RolloutFixedStep, Extraction: core.ExtractBG}}))

// convergence is the sweep of Figures 14 and 21 at cardinality k and the
// scaled budget: the improvement of the best configuration found by DBA
// bandits and No DBA after each round, with the MCTS average as reference.
func convergence(k, budget int) sweep {
	return func(r *runner) []Panel {
		b := r.cfg.scaled(budget)[0]
		var banditTraj, dqnTraj []float64
		r.run(bandit.DBABandits{Trajectory: &banditTraj}, k, b, 1, 0)
		r.run(dqn.NoDBA{Trajectory: &dqnTraj}, k, b, 1, 0)
		mctsMean := r.runSeeds(core.Default(), k, b, 0).Mean

		panel := Panel{Title: fmt.Sprintf("K = %d, B = %d", k, b), XLabel: "Round", YLabel: "Improvement (%)"}
		toSeries := func(label string, traj []float64) Series {
			s := Series{Label: label}
			for i, v := range traj {
				s.Points = append(s.Points, Point{X: strconv.Itoa(i + 1), Mean: v})
			}
			return s
		}
		mcts := make([]float64, max(len(banditTraj), len(dqnTraj), 1))
		for i := range mcts {
			mcts[i] = mctsMean
		}
		panel.Series = append(panel.Series,
			toSeries("DBA Bandits", banditTraj), toSeries("No DBA", dqnTraj), toSeries("MCTS (avg)", mcts))
		return []Panel{panel}
	}
}

// dtaVsMCTS is the sweep of Figures 15 and 20: one panel per storage
// setting, improvement vs budget for DTA (given the tuning time the budget
// buys) and MCTS, per K. With the storage constraint (SC) the indexes may
// take 3× the database size.
func dtaVsMCTS(withSC ...bool) sweep {
	return func(r *runner) []Panel {
		budgets := r.cfg.budgets(r.wname)
		var panels []Panel
		for _, sc := range withSC {
			title, storage := "without SC", int64(0)
			if sc {
				title, storage = "with SC", 3*r.w.DB.SizeBytes()
			}
			p := Panel{Title: title, XLabel: "budget (what-if calls, minutes)", YLabel: "Improvement (%)"}
			for _, k := range ks {
				dtaSeries := budgetSeries(fmt.Sprintf("DTA (K=%d)", k), budgets, r.budgetLabel, func(b int) Point {
					res := dta.Tune(r.w, dta.Options{TimeBudget: r.tuningTime(b), K: k, StorageLimit: storage, Seed: int64(b)})
					return Point{Mean: res.ImprovementPct, Calls: float64(res.WhatIfCalls)}
				})
				mctsSeries := budgetSeries(fmt.Sprintf("MCTS (K=%d)", k), budgets, r.budgetLabel, func(b int) Point {
					return r.runSeeds(core.Default(), k, b, storage)
				})
				p.Series = append(p.Series, dtaSeries, mctsSeries)
			}
			panels = append(panels, p)
		}
		return panels
	}
}

// earlyStopping is an experiment beyond the paper: for each algorithm it
// compares a full-budget run (StopEpsilon = 0, the paper's behavior) against
// the same run with Esc-style early stopping enabled, across a budget sweep
// reaching well past the point of diminishing returns. The Calls column
// carries the charged what-if calls, so the CSV shows the charged-call
// reduction early stopping buys at equal (or better) oracle improvement.
func earlyStopping(r *runner) []Panel {
	epsOn := r.cfg.StopEpsilon
	if epsOn <= 0 {
		epsOn = search.DefaultStopEpsilon
	}
	// Budgets reach 5x the workload's usual sweep: early stopping matters
	// exactly where the budget outlives the remaining improvement headroom.
	budgets := r.cfg.scaled(500, 1000, 2000, 5000)
	const k = 10
	p := Panel{Title: fmt.Sprintf("K = %d", k), XLabel: "budget (what-if calls)", YLabel: "Improvement (%)"}
	for _, alg := range []search.Algorithm{greedy.TwoPhase{}, greedy.AutoAdmin{}, core.Default()} {
		for _, eps := range []float64{0, epsOn} {
			withEps := *r
			withEps.cfg.StopEpsilon = eps
			p.Series = append(p.Series, budgetSeries(fmt.Sprintf("%s (ε=%g)", alg.Name(), eps), budgets, strconv.Itoa, func(b int) Point {
				return withEps.runSeeds(alg, k, b, 0)
			}))
		}
	}
	return []Panel{p}
}

// tuningTimeSplit reproduces Figure 2: the split of (simulated) tuning time
// between what-if calls and other work when running budget-aware greedy on
// the workload with K = 20 across budgets.
func tuningTimeSplit(r *runner) []Panel {
	panel := Panel{Title: "K = 20", XLabel: "# of what-if calls", YLabel: "Time (minutes)"}
	whatIf := Series{Label: "Time spent on what-if calls"}
	other := Series{Label: "Other time spent on index tuning"}
	for _, b := range r.cfg.budgets(r.wname) {
		res := search.Run(greedy.Vanilla{}, r.session(20, b, 1, 0))
		x := strconv.Itoa(b)
		whatIf.Points = append(whatIf.Points, Point{X: x, Mean: res.WhatIfTime.Minutes()})
		other.Points = append(other.Points, Point{X: x, Mean: (res.TuningTime - res.WhatIfTime).Minutes()})
	}
	panel.Series = append(panel.Series, whatIf, other)
	return []Panel{panel}
}

// workloadStats reproduces Table 1.
func workloadStats(Config) []Panel {
	panel := Panel{Title: "Table 1", XLabel: "workload", YLabel: "value"}
	var size, nq, nt, aj, af, as Series
	size.Label, nq.Label, nt.Label = "Size (GB)", "# Queries", "# Tables"
	aj.Label, af.Label, as.Label = "Avg # Joins", "Avg # Filters", "Avg # Scans"
	for _, name := range workload.Names() {
		st := workload.ByName(name).ComputeStats()
		size.Points = append(size.Points, Point{X: st.Name, Mean: float64(st.SizeBytes) / (1 << 30)})
		nq.Points = append(nq.Points, Point{X: st.Name, Mean: float64(st.NumQueries)})
		nt.Points = append(nt.Points, Point{X: st.Name, Mean: float64(st.NumTables)})
		aj.Points = append(aj.Points, Point{X: st.Name, Mean: st.AvgJoins})
		af.Points = append(af.Points, Point{X: st.Name, Mean: st.AvgFilters})
		as.Points = append(as.Points, Point{X: st.Name, Mean: st.AvgScans})
	}
	panel.Series = append(panel.Series, size, nq, nt, aj, af, as)
	return []Panel{panel}
}
