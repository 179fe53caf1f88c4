// Command bench is the repository benchmark. One run executes one workload
// for a fixed wall-clock window, checks every result it produced, and
// prints its metrics: a table for people, then, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root through the wrapper, which builds the
// harness and the tuned daemon from the checkout first:
//
//	bash bench/run.sh --workload tpch-mcts-stop --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json and --trace 1
// runs the traced pass, which reports the per-layer metrics. --out FILE
// appends the run to FILE as one JSON line, and
//
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// compares two such sets of runs against the bounds in BENCHMARK.json.
// Workloads are described in bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	// time.Now is passed as a value, not called here: every clock read of
	// the harness goes through the injected clock.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now))
}

// runConfig is one benchmark run's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	tuned  string // path of the tuned binary (daemon-mixed only)
	now    clock
}

// record is one run as -out stores it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	// Scale is the run's mean calibration factor.
	Scale float64 `json:"scale,omitempty"`
	report
}

func workloadNames() []string {
	var names []string
	for _, sp := range sessionWorkloads {
		names = append(names, sp.name)
	}
	return append(names, daemonName)
}

func run(args []string, stdout, stderr io.Writer, now clock) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
		seed    = fs.Int64("seed", 1, "input seed (non-negative); the same seed gives the same inputs")
		seconds = fs.Int("seconds", 20, "length of the measured window in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		tuned   = fs.String("tuned", "", "path of the tuned binary, for daemon-mixed")
		out     = fs.String("out", "", "append the run to this JSON-lines file")
		compare = fs.Bool("compare", false, "compare two JSON-lines sets of runs (the two arguments) against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || *seed < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: want --workload W --seed N>=0 --seconds S>=1 --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, tuned: *tuned, now: now}
	rep, err := runWorkload(*name, *traced == 1, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printTable(stdout, *name, rep)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced, Scale: rep.scale, report: *rep}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func runWorkload(name string, traced bool, cfg runConfig) (*report, error) {
	if name == daemonName {
		if cfg.tuned == "" {
			return nil, errors.New("daemon-mixed needs -tuned")
		}
		if traced {
			return daemonWorkload.traced(cfg)
		}
		return daemonWorkload.measure(cfg)
	}
	for _, sp := range sessionWorkloads {
		if sp.name == name {
			if traced {
				return sp.traced(cfg)
			}
			return sp.measure(cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// printTable writes the human-readable form of a report.
func printTable(w io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	if rep.scale != 0 {
		fmt.Fprintf(w, "  times scaled to reference speed by %.4f (calibration kernel)\n", rep.scale)
	}
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
