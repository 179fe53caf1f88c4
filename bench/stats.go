package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clock is the harness's only wall-clock source: main passes time.Now, so
// no code below calls the time package's clock readers directly.
type clock func() time.Time

// metric is one reported value. N is the sample count behind it, printed in
// the human-readable table but not part of the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// scale is the run's mean calibration factor (see calibrate.go): the
	// factor its measured times were multiplied by, 1 when uncalibrated.
	scale float64
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// endToEnd reports the end-to-end metrics of an untraced run from its
// throughput, operation latencies (ms), quality-set improvements and call
// counts, set-up times (s) and peak RSS (MiB).
func endToEnd(rep *report, throughput float64, lat, improvement, calls, setups []float64, rss float64) {
	rep.set("throughput_per_s", throughput, "1/s", len(lat))
	rep.set("latency_p50_ms", percentile(lat, 50), "ms", len(lat))
	rep.set("latency_p90_ms", percentile(lat, 90), "ms", len(lat))
	rep.set("improvement_pct", mean(improvement), "%", len(improvement))
	rep.set("whatif_calls", mean(calls), "count", len(calls))
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("peak_rss_mb", rss, "MiB", 1)
}

// maxLoggedFailures caps the failure reasons echoed to stderr per run.
const maxLoggedFailures = 5

// fail records one failed operation and logs its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

// finish sets Correct from the failure count.
func (r *report) finish() *report {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" default), so the
// spreads the benchmark reports match the ones its acceptance rule computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rounds is the number of equal time slices a measured window is split
// into; throughput is the median over the slices, so one slow phase of a
// shared machine moves one slice rather than the whole number.
const rounds = 5

// roundOf maps an offset into the measured window onto its slice; work past
// the window (runs extended to finish their fixed quality set) lands in the
// last one.
func roundOf(at, window time.Duration) int {
	r := int(at * rounds / window)
	if r >= rounds {
		r = rounds - 1
	}
	return r
}

// peakRSS is a process's resident-set high-water mark (VmHWM of
// /proc/<pid>/status) in MiB; pid "self" is this process.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 2 || fs[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the user+system CPU time a process has used so far.
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	fs := strings.Fields(string(b[i+1:]))
	if len(fs) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	var ticks int64
	for _, s := range fs[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%s/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
