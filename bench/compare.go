package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the metric part of BENCHMARK.json.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

// boundSpec is one metric: its unit, its direction and, for end-to-end
// metrics, the share of the baseline median by which it may worsen before
// a change regresses.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readRecords loads a JSON-lines set of untraced runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return recs, nil
}

// verdict compares baseline runs a with candidate runs b of one metric. The
// runs are paired by seed for the win count.
//
//   - better: every b run reads better than every a run; or b wins at least
//     nine tenths of the seed pairs and the medians differ by more than a's
//     interquartile distance.
//   - unresolved: either side's spread exceeds the bound, so the bound
//     cannot separate a change from noise.
//   - worse: b's median is worse than a's by more than the bound.
//   - within bound: otherwise.
func verdict(m boundSpec, a, b map[int64]float64) string {
	av, bv := values(a), values(b)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "lower" {
			return x < y
		}
		return x > y
	}
	ma, mb := median(av), median(bv)
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return "better"
	}
	if spread(av) > m.Bound || spread(bv) > m.Bound || ma == 0 {
		return "unresolved"
	}
	if better(ma, mb) && math.Abs(mb-ma)/math.Abs(ma) > m.Bound {
		return "worse"
	}
	wins, pairs := 0, 0
	for seed, x := range b {
		if y, ok := a[seed]; ok {
			pairs++
			if better(x, y) {
				wins++
			}
		}
	}
	q1, q3 := quartiles(av)
	if pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	return "within bound"
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// runCompare prints, for every workload and end-to-end metric, both sets'
// medians and spreads and the verdict for b against baseline a. It exits
// 1 when any metric is worse.
func runCompare(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 1
	}
	a, err := readRecords(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRecords(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// byWorkload[workload][metric][seed] = value
	group := func(recs []record) map[string]map[string]map[int64]float64 {
		out := map[string]map[string]map[int64]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]map[int64]float64{}
			}
			for name, m := range r.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = map[int64]float64{}
				}
				out[r.Workload][name][r.Seed] = m.Value
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	workloads := make([]string, 0, len(ga))
	for w := range ga {
		if gb[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	status := 0
	fmt.Fprintf(stdout, "%-18s %-17s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			av, bv := ga[w][m.Name], gb[w][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(values(av)), median(values(bv))
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			v := verdict(m, av, bv)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-18s %-17s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				w, m.Name, ma, 100*spread(values(av)), mb, 100*spread(values(bv)), 100*change, 100*m.Bound, v)
		}
	}
	return status
}
