// Command experiments regenerates the tables and figures of "Budget-aware
// Index Tuning with Reinforcement Learning" (SIGMOD 2022). Each experiment
// prints the same series the paper plots and can optionally emit CSV.
//
// Usage:
//
//	experiments -fig 8            # regenerate Figure 8 at paper fidelity
//	experiments -fig table1       # regenerate Table 1
//	experiments -all -quick       # all experiments, reduced fidelity
//	experiments -fig 14 -csv out.csv
//
// Exit codes: 0 on success, 1 on runtime errors (I/O), 2 on usage errors
// (bad flags, no experiment selected, unknown experiment id).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"indextune/internal/experiments"
	"indextune/internal/search"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main. Every experiment id is checked before
// anything is created, and keeping os.Exit out of it means the CSV file is
// closed, and its Close error reported, on every path.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figID    = fs.String("fig", "", "experiment ids, comma-separated: "+strings.Join(experiments.IDs(), " "))
		all      = fs.Bool("all", false, "run every experiment")
		quick    = fs.Bool("quick", false, "reduced fidelity (smaller budgets, fewer seeds)")
		seeds    = fs.Int("seeds", 0, "override number of RNG seeds (default 5, quick 2)")
		scale    = fs.Int("scale", 0, "override budget divisor (default 1, quick 10)")
		sw       = fs.Int("session-workers", 0, "intra-session MCTS parallelism (0/1 = the paper's sequential search)")
		derive   = fs.Float64("derive-epsilon", search.DefaultDeriveEpsilon, "answer what-if calls from derived cost bounds when their relative gap is within this tolerance, without charging budget (0 = off, reproduces the paper's budget-only accounting)")
		stopEps  = fs.Float64("stop-epsilon", search.DefaultStopEpsilon, "terminate runs once the bound on the best possible remaining improvement falls to this fraction of the baseline cost, refunding unspent budget (0 = off, reproduces the paper's run-to-exhaustion behavior)")
		csvOut   = fs.String("csv", "", "also write results as CSV to this file")
		traceDir = fs.String("trace-dir", "", "write per-run trace events (JSONL) and summaries (JSON) into this directory")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *figID != "":
		ids = strings.Split(*figID, ",")
	default:
		fmt.Fprintln(stderr, "usage: experiments -fig <id> | -all  (ids:", strings.Join(experiments.IDs(), " "), ")")
		return exitUsage
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if !slices.Contains(experiments.IDs(), ids[i]) {
			fmt.Fprintf(stderr, "experiments: unknown experiment id %q (ids: %s)\n", ids[i], strings.Join(experiments.IDs(), " "))
			return exitUsage
		}
	}

	cfg := experiments.Full
	if *quick {
		cfg = experiments.Quick
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	cfg.SessionWorkers = *sw
	cfg.DeriveEpsilon = *derive
	cfg.StopEpsilon = *stopEps
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return exitRuntime
		}
		cfg.TraceDir = *traceDir
	}

	var csvFile *os.File
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return exitRuntime
		}
		defer func() {
			if err := f.Close(); err != nil && code == exitOK {
				fmt.Fprintln(stderr, "experiments: csv:", err)
				code = exitRuntime
			}
		}()
		csvFile = f
	}

	for i, id := range ids {
		fig, err := experiments.ByID(cfg, id)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return exitRuntime
		}
		fig.WriteText(stdout)
		if csvFile != nil {
			if err := fig.WriteCSV(csvFile, i == 0); err != nil {
				fmt.Fprintln(stderr, "experiments: csv:", err)
				return exitRuntime
			}
		}
	}
	return exitOK
}
