// Command tune runs budget-aware index tuning on a built-in workload and
// prints the recommended configuration.
//
// Usage:
//
//	tune -workload tpch -alg mcts -k 10 -budget 500
//	tune -workload real-m -alg auto-admin -k 20 -budget 5000 -storage 3x
//	tune -workload tpcds -alg mcts -explain
//
// Exit codes: 0 on success, 1 on runtime errors (I/O, tuning failures),
// 2 on usage errors (bad flags, unknown workload, malformed -storage).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"indextune"
)

// Exit codes, documented in -h: usage errors are the caller's bug, runtime
// errors are the environment's.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main. Keeping os.Exit out of it means every
// deferred cleanup — profile flushes, trace file closes — executes on all
// paths, including errors; the old main exited straight past its defers and
// truncated CPU profiles whenever tuning failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "tpch", "built-in workload: "+strings.Join(indextune.Workloads(), ", "))
		file    = fs.String("file", "", "load the workload from a JSON file instead (see workloadgen -json)")
		alg     = fs.String("alg", indextune.AlgorithmMCTS, "algorithm: "+strings.Join(indextune.Algorithms(), ", "))
		policy  = fs.String("policy", "", "MCTS policy override: prior, uct, boltzmann, uniform")
		rave    = fs.Bool("rave", false, "blend RAVE (all-moves-as-first) estimates into MCTS")
		k       = fs.Int("k", 10, "cardinality constraint (max indexes)")
		budget  = fs.Int("budget", 1000, "budget on what-if optimizer calls")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 1, "intra-session MCTS parallelism (episodes in flight; results deterministic per seed+workers)")
		storage = fs.String("storage", "", "storage limit: bytes, or a multiple of DB size like \"3x\" (empty = unconstrained)")
		derive  = fs.Float64("derive-epsilon", indextune.DefaultDeriveEpsilon, "answer what-if calls from derived cost bounds when their relative gap is within this tolerance, without charging budget (0 = off, bit-identical to budget-only accounting)")
		stopEps = fs.Float64("stop-epsilon", indextune.DefaultStopEpsilon, "terminate the run once the bound on the best possible remaining improvement falls to this fraction of the baseline cost, refunding unspent budget (0 = off)")
		explain = fs.Bool("explain", false, "print the plan of the workload's first query under the recommendation")
		any     = fs.Bool("anytime", false, "run the anytime wrapper (budget interpreted as simulated seconds)")

		traceOut   = fs.String("trace-out", "", "write the session's trace event stream as JSONL to this file")
		metricsOut = fs.String("metrics-out", "", "write the session's trace summary (counters + improvement-vs-spend curve) as JSON to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: tune [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExit codes: 0 success, 1 runtime error, 2 usage error.\n")
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tune: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return exitUsage
	}
	if *any {
		// The anytime wrapper runs its own MCTS schedule; these flags would
		// be silently ignored. Visit sees only flags set on the command
		// line, so their defaults never trip the check.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "alg", "workers", "derive-epsilon", "policy", "rave":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(stderr, "tune: %s cannot be combined with -anytime\n", strings.Join(ignored, ", "))
			return exitUsage
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "tune:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "tune:", err)
			}
		}()
	}

	var w *indextune.WorkloadSet
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
		w, err = indextune.LoadWorkloadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
	} else {
		w = indextune.Workload(*wname)
		if w == nil {
			fmt.Fprintf(stderr, "tune: unknown workload %q (want one of %v)\n", *wname, indextune.Workloads())
			return exitUsage
		}
	}
	var storageLimit int64
	if *storage != "" {
		var err error
		storageLimit, err = parseStorage(*storage, w)
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitUsage
		}
	}

	var mcts *indextune.MCTSOptions
	if *policy != "" || *rave {
		mcts = &indextune.MCTSOptions{Policy: *policy, RAVE: *rave}
	}
	var events io.Writer
	var eventsFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
		// Closed via defer so the trace survives error paths too; the
		// explicit close below still reports write errors on success.
		defer f.Close()
		eventsFile = f
		events = f
	}
	collect := *metricsOut != ""
	var res *indextune.Result
	var err error
	if *any {
		res, err = indextune.TuneAnytime(w, indextune.AnytimeOptions{
			K: *k, TimeBudget: time.Duration(*budget) * time.Second,
			StorageLimitBytes: storageLimit, Seed: *seed,
			StopEpsilon: *stopEps,
			TraceEvents: events, CollectTrace: collect,
		}, func(p indextune.AnytimeProgress) {
			reason := ""
			if p.Reason != "" {
				reason = " [" + p.Reason + "]"
			}
			fmt.Fprintf(stdout, "slice %2d: %4d/%d calls (%.0f%%), best %.1f%%%s\n",
				p.Slice, p.CallsUsed, p.Budget, 100*p.BudgetFraction, p.ImprovementPct, reason)
		})
	} else {
		res, err = indextune.Tune(w, indextune.Options{
			K: *k, Budget: *budget, Algorithm: *alg, Seed: *seed,
			StorageLimitBytes: storageLimit, MCTS: mcts,
			SessionWorkers: *workers, DeriveEpsilon: *derive, StopEpsilon: *stopEps,
			TraceEvents: events, CollectTrace: collect,
		})
	}
	if eventsFile != nil {
		if cerr := eventsFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "tune:", err)
		return exitRuntime
	}
	if *metricsOut != "" && res.Trace != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(stderr, "tune:", err)
			return exitRuntime
		}
		werr := indextune.WriteTraceSummary(f, *res.Trace)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "tune:", werr)
			return exitRuntime
		}
	}

	st := w.ComputeStats()
	fmt.Fprintf(stdout, "workload %s: %d queries over %d tables (%.1f GB)\n",
		st.Name, st.NumQueries, st.NumTables, float64(st.SizeBytes)/(1<<30))
	fmt.Fprintf(stdout, "algorithm %s, K=%d, budget=%d what-if calls (used %d, %d cache hits, %d bound-derived), %d candidates\n",
		res.Algorithm, *k, *budget, res.WhatIfCalls, res.CacheHits, res.DerivedBoundHits, res.Candidates)
	if res.EarlyStopped {
		// used + refunded is the session's actual budget, which the anytime
		// wrapper scales past the -budget flag value.
		fmt.Fprintf(stdout, "early-stopped: bound gap %.4f, refunded %d of %d budget\n",
			res.StopGap, res.RefundedBudget, res.WhatIfCalls+res.RefundedBudget)
	}
	fmt.Fprintf(stdout, "improvement: %.1f%%   recommended storage: %.1f GB   simulated tuning time: %s\n",
		res.ImprovementPct, float64(res.StorageBytes)/(1<<30), res.TuningTime.Round(1e9))
	fmt.Fprintln(stdout, "recommended indexes:")
	for _, ix := range res.Indexes {
		fmt.Fprintf(stdout, "  CREATE INDEX ON %s\n", ix)
	}

	if *explain && len(w.Queries) > 0 {
		q := w.Queries[0]
		fmt.Fprintln(stdout, "\nplan of the first query under the recommendation:")
		fmt.Fprint(stdout, indextune.ExplainQuery(w, q, res.Indexes))
	}
	return exitOK
}

func parseStorage(s string, w *indextune.WorkloadSet) (int64, error) {
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad storage multiple %q", s)
		}
		return int64(f * float64(w.DB.SizeBytes())), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad storage size %q", s)
	}
	return n, nil
}
