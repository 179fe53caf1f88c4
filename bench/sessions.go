package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"indextune/internal/algo"
	"indextune/internal/candgen"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/workload"
)

// sessionSpec is an in-process workload: independent tuning sessions run
// back to back in this process, each on a fresh optimizer, so every session
// pays the cold cost model, session set-up and its algorithm's own work.
type sessionSpec struct {
	name      string
	workload  string // built-in workload name
	algorithm string
	k, budget int
	deriveEps float64
	stopEps   float64
	// quality is the size of the fixed quality set: the first sessions of
	// every run, always completed even past the time window, over which
	// improvement_pct, whatif_calls and peak_rss_mb are taken. Timing
	// metrics use every session of the window.
	quality int
}

// sessionWorkloads are the in-process workloads. The instances are the
// built-in ones for every seed (the seed picks the sessions' random
// streams): two-phase greedy is deterministic, and Real-M-shaped instances
// from other generator seeds differ by up to 2.5x in improvement and 25% in
// session time, more than any regression bound could absorb.
var sessionWorkloads = []sessionSpec{
	{name: "tpch-mcts-stop", workload: "tpch", algorithm: algo.NameMCTS, k: 10, budget: 5000,
		deriveEps: search.DefaultDeriveEpsilon, stopEps: search.DefaultStopEpsilon, quality: 500},
	{name: "reald-mcts-budget", workload: "real-d", algorithm: algo.NameMCTS, k: 10, budget: 5000,
		deriveEps: search.DefaultDeriveEpsilon, stopEps: 0, quality: 80},
	{name: "realm-twophase", workload: "real-m", algorithm: algo.NameTwoPhase, k: 10, budget: 5000,
		deriveEps: search.DefaultDeriveEpsilon, stopEps: search.DefaultStopEpsilon, quality: 20},
}

// seedStride spaces the session seeds of different benchmark seeds apart,
// so runs with different --seed share no session.
const seedStride = 100_000

// A run repeats its set-up at least setupReps times and for at least
// setupTime; setup_s is the median. Millisecond set-ups (TPC-H, the daemon's
// start) so get a dozen or more samples.
const (
	setupReps = 5
	setupTime = 500 * time.Millisecond
)

// instance is a workload with its candidate universe.
type instance struct {
	w     *workload.Workload
	cands *candgen.Result
}

func buildInstance(name string) (instance, error) {
	w := workload.ByName(name)
	if w == nil {
		return instance{}, fmt.Errorf("unknown workload %q", name)
	}
	return instance{w: w, cands: candgen.Generate(w, candgen.Options{})}, nil
}

// setup builds the workload and its candidates at least reps times and
// for at least minTime, and returns the last instance with every build's
// duration at reference speed.
func (sp sessionSpec) setup(now clock, reps int, minTime time.Duration) (instance, []float64, error) {
	var inst instance
	var secs []float64
	for start := now(); len(secs) < reps || now().Sub(start) < minTime; {
		d, err := timedAtReference(now, func() error {
			var err error
			inst, err = buildInstance(sp.workload)
			return err
		})
		if err != nil {
			return inst, nil, err
		}
		secs = append(secs, d.Seconds())
	}
	return inst, secs, nil
}

// session runs one tuning session on a fresh optimizer.
func (sp sessionSpec) session(inst instance, seed int64, rec *trace.Recorder) (search.Result, *search.Session, error) {
	alg, err := algo.ByName(sp.algorithm, nil)
	if err != nil {
		return search.Result{}, nil, err
	}
	s := search.NewSession(inst.w, inst.cands, search.NewOptimizer(inst.w, inst.cands), sp.k, sp.budget, seed)
	s.DeriveEpsilon = sp.deriveEps
	s.StopEpsilon = sp.stopEps
	s.Trace = rec
	return search.Run(alg, s), s, nil
}

// warmUp runs one untimed session outside the run's seed range, so the
// process's heap and runtime reach their steady state before timing starts.
func (sp sessionSpec) warmUp(inst instance, base int64) error {
	_, _, err := sp.session(inst, base+seedStride-1, nil)
	return err
}

// check returns why a session result is wrong, or nil.
func (sp sessionSpec) check(r search.Result) error {
	switch {
	case r.WhatIfCalls > sp.budget:
		return fmt.Errorf("used %d calls of a %d budget", r.WhatIfCalls, sp.budget)
	case r.Cancelled:
		return fmt.Errorf("cancelled without a context")
	case r.EarlyStopped && r.WhatIfCalls+r.RefundedBudget != sp.budget:
		return fmt.Errorf("stopped early with used %d + refunded %d != budget %d", r.WhatIfCalls, r.RefundedBudget, sp.budget)
	case r.Config.Len() > sp.k:
		return fmt.Errorf("%d indexes for K=%d", r.Config.Len(), sp.k)
	case math.IsNaN(r.ImprovementPct) || r.ImprovementPct < 0 || r.ImprovementPct > 100:
		return fmt.Errorf("improvement %v outside [0, 100]", r.ImprovementPct)
	}
	return nil
}

// identity is what a re-run of a session must reproduce exactly.
func identity(r search.Result) string {
	return r.Config.Key() + "|" + strconv.FormatFloat(r.ImprovementPct, 'g', -1, 64) + "|" + strconv.Itoa(r.WhatIfCalls)
}

// sessionRun is one timed session.
type sessionRun struct {
	at, dur time.Duration // start offset in the window, and duration at reference speed
	res     search.Result
	s       *search.Session
}

// loop runs sessions with seeds base, base+1, ... until cal's window has
// passed and at least min sessions completed, checking each result and
// sampling the calibration kernel between sessions. after, when set, sees
// every session outside the timed region; rec supplies each session's
// recorder (nil for untraced runs). Durations are scaled to reference
// speed once the window is over.
func (sp sessionSpec) loop(cal *calibrator, inst instance, base int64, min int, rep *report,
	rec func(i int) *trace.Recorder, after func(i int, r sessionRun)) ([]sessionRun, error) {
	var runs []sessionRun
	now := cal.now
	for i := 0; now().Sub(cal.start) < cal.window || i < min; i++ {
		cal.maybe()
		var r *trace.Recorder
		if rec != nil {
			r = rec(i)
		}
		t0 := now()
		res, s, err := sp.session(inst, base+int64(i), r)
		if err != nil {
			return nil, err
		}
		run := sessionRun{at: t0.Sub(cal.start), dur: now().Sub(t0), res: res, s: s}
		rep.Attempted++
		if err := sp.check(res); err != nil {
			rep.fail("%s session %d: %v", sp.name, i, err)
		}
		if after != nil {
			after(i, run)
		}
		run.s = nil // let the session's optimizer go
		runs = append(runs, run)
	}
	for i := range runs {
		runs[i].dur = cal.scale(runs[i].dur, runs[i].at)
	}
	return runs, nil
}

// throughput is the median over the window's rounds of sessions per second
// of session time.
func throughput(runs []sessionRun, window time.Duration) float64 {
	var n [rounds]int
	var busy [rounds]time.Duration
	for _, r := range runs {
		k := roundOf(r.at, window)
		n[k]++
		busy[k] += r.dur
	}
	var per []float64
	for k := range n {
		if n[k] > 0 {
			per = append(per, float64(n[k])/busy[k].Seconds())
		}
	}
	return median(per)
}

// measure is the untraced run: the end-to-end metrics.
func (sp sessionSpec) measure(cfg runConfig) (*report, error) {
	rep := newReport()
	// One build before the window, the other set-up repetitions after it:
	// their garbage would otherwise set the process's peak RSS.
	inst, setups, err := sp.setup(cfg.now, 1, 0)
	if err != nil {
		return nil, err
	}
	base := cfg.seed * seedStride
	if err := sp.warmUp(inst, base); err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	var (
		improvement, calls []float64
		rss                float64
		rssErr             error
	)
	cal := newCalibrator(cfg.now, cfg.now(), cfg.window)
	runs, err := sp.loop(cal, inst, base, sp.quality, rep, nil, func(i int, r sessionRun) {
		if i >= sp.quality {
			return
		}
		improvement = append(improvement, r.res.ImprovementPct)
		calls = append(calls, float64(r.res.WhatIfCalls))
		if i == sp.quality-1 {
			rss, rssErr = peakRSS("self")
		}
	})
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	// A fresh optimizer and session must reproduce the first session.
	again, _, err := sp.session(inst, base, nil)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if identity(again) != identity(runs[0].res) {
		rep.fail("%s: re-running session 0 gave %s, first run %s", sp.name, identity(again), identity(runs[0].res))
	}
	_, more, err := sp.setup(cfg.now, setupReps-1, setupTime)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	lat := make([]float64, len(runs))
	for i, r := range runs {
		lat[i] = ms(r.dur)
	}
	endToEnd(rep, throughput(runs, cfg.window), lat, improvement, calls, setups, rss)
	rep.scale = cal.windowFactor()
	return rep.finish(), nil
}

// replayStreams is how many traced sessions keep their event stream for
// the replay.
const replayStreams = 4

// traced is the traced pass: an untraced stretch, then the same sessions
// under the CPU profiler with an in-memory event recorder, then a replay of
// the first captured streams. It reports the per-layer metrics.
func (sp sessionSpec) traced(cfg runConfig) (*report, error) {
	rep := newReport()
	inst, _, err := sp.setup(cfg.now, 1, 0)
	if err != nil {
		return nil, err
	}
	base := cfg.seed * seedStride
	if err := sp.warmUp(inst, base); err != nil {
		return nil, err
	}
	plain, err := sp.loop(newCalibrator(cfg.now, cfg.now(), cfg.window/4), inst, base, 1, rep, nil, nil)
	if err != nil {
		return nil, err
	}

	var (
		events                      bytes.Buffer
		cases                       []replayCase
		charged, repeats, boundHits int64
		refunded, episodes          int64
		extracts                    int64
		hits, misses                int64
		evicts, resident            int64
		profiled                    []sessionRun
		loopErr                     error
	)
	samples, alloc, err := profile(func() {
		profiled, loopErr = sp.loop(newCalibrator(cfg.now, cfg.now(), cfg.window*9/20), inst, base, len(plain), rep,
			func(int) *trace.Recorder {
				events.Reset()
				return trace.New(&events)
			},
			func(i int, r sessionRun) {
				if err := r.s.Trace.Flush(); err != nil {
					rep.fail("%s session %d: flushing trace: %v", sp.name, i, err)
				}
				res := r.res
				charged += int64(res.WhatIfCalls)
				repeats += res.CacheHits
				boundHits += res.DerivedBoundHits
				refunded += int64(res.RefundedBudget)
				ep := int64(bytes.Count(events.Bytes(), episodeKind))
				episodes += ep
				extracts += extractCalls(sp.algorithm, sp.stopEps, ep)
				st := r.s.OracleCacheStats()
				hits += st.Hits
				misses += st.Misses
				evicts += st.Evictions
				resident += st.ResidentBytes
				if i < replayStreams {
					cases = append(cases, replayCase{inst: inst, k: sp.k, budget: sp.budget, deriveEps: sp.deriveEps,
						stream: append([]byte(nil), events.Bytes()...), extracted: res.Config.Key(),
						checkExtract: sp.algorithm == algo.NameMCTS})
				}
			})
	})
	if loopErr != nil {
		return nil, loopErr
	}
	if err != nil {
		return nil, err
	}
	profileShares(samples, rep)

	n := float64(len(profiled))
	rep.set("search.charged", float64(charged)/n, "count", len(profiled))
	rep.set("search.repeat_hits", float64(repeats)/n, "count", len(profiled))
	rep.set("search.bound_hits", float64(boundHits)/n, "count", len(profiled))
	rep.set("search.bound_hit_ratio", ratio(boundHits, boundHits+charged), "ratio", len(profiled))
	rep.set("core.episodes", float64(episodes)/n, "count", len(profiled))
	rep.set("greedy.extract_calls", float64(extracts)/n, "count", len(profiled))
	rep.set("earlystop.refunded", float64(refunded)/n, "count", len(profiled))
	rep.set("gc.alloc_mb_per_session", float64(alloc)/(1<<20)/n, "MiB", len(profiled))
	rep.set("whatif.cache_hit_rate", ratio(hits, hits+misses), "ratio", len(profiled))
	rep.set("whatif.evictions_per_job", float64(evicts)/n, "count", len(profiled))
	rep.set("whatif.resident_mb", float64(resident)/(1<<20)/n, "MiB", len(profiled))
	rep.set("traced_overhead_pct", overheadPct(plain, profiled), "%", len(plain))
	jobMetricsAbsent(rep)

	var times replayTimes
	replayStart := cfg.now()
	for i, c := range cases {
		if i > 0 && cfg.now().Sub(replayStart) >= cfg.window*3/10 {
			break
		}
		rep.Attempted++
		if err := replay(cfg.now, c, &times); err != nil {
			rep.fail("%s replay of session %d: %v", sp.name, i, err)
		}
	}
	replayMetrics(&times, rep)
	return rep.finish(), nil
}

// extractCalls is the number of Best-Greedy extractions (greedy.DerivedOnly)
// a session ran, from its episode count: MCTS extracts once at the end and,
// with early stopping armed, at every extractEvery-th episode's stop check;
// the greedy algorithms never call it.
func extractCalls(algorithm string, stopEps float64, episodes int64) int64 {
	if algorithm != algo.NameMCTS {
		return 0
	}
	if stopEps <= 0 {
		return 1
	}
	return 1 + episodes/extractEvery
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overheadPct compares the session time of the sessions both stretches
// ran: how much slower the profiled, recorded sessions were, in percent.
func overheadPct(plain, traced []sessionRun) float64 {
	n := len(plain)
	if len(traced) < n {
		n = len(traced)
	}
	var p, t time.Duration
	for i := 0; i < n; i++ {
		p += plain[i].dur
		t += traced[i].dur
	}
	if p == 0 {
		return 0
	}
	return 100 * (float64(t)/float64(p) - 1)
}

// jobMetricsAbsent reports the daemon-only metrics as 0 for the in-process
// workloads, which have no job lifecycle, HTTP layer or daemon process.
func jobMetricsAbsent(rep *report) {
	for _, name := range []string{"jobs.submit_ms_p50", "jobs.first_event_ms_p50", "jobs.queue_wait_ms_p50",
		"jobs.run_ms_p50", "jobs.run_ms_p90", "jobs.stream_tail_ms_p50"} {
		rep.set(name, 0, "ms", 0)
	}
	rep.set("daemon.cpu_ms_per_job", 0, "ms", 0)
}
