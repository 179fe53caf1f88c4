package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"indextune/internal/algo"
	"indextune/internal/iset"
	"indextune/internal/jobs"
	"indextune/internal/search"
	"indextune/internal/trace"
)

// daemon-mixed drives the cmd/tuned binary over HTTP: daemonClients closed-
// loop clients each submit a job, stream its trace as JSONL up to the
// job-summary record, and repeat. Jobs cycle through daemonMix, so the
// shared per-schema oracles stay warm but bounded below their working set.

const (
	daemonName = "daemon-mixed"
	// daemonClients is both the number of clients and the daemon's
	// -max-jobs: one per CPU of the benchmark machine.
	daemonClients = 2
	// daemonCacheBytes bounds each shared oracle's cache below the mix's
	// resident working set (about 1.9 MB for JOB and 2.2 MB for TPC-H), so
	// the warm cache evicts.
	daemonCacheBytes = 1 << 20
	startTimeout     = 10 * time.Second
	stopTimeout      = 30 * time.Second
)

// daemonSpec is the daemon workload. quality is the size of its fixed
// quality set: the first jobs of every run, completed even past the
// window, over which improvement_pct, whatif_calls and peak_rss_mb are
// taken.
type daemonSpec struct{ quality int }

var daemonWorkload = daemonSpec{quality: 600}

// mixJob is one entry of the daemon's job mix.
type mixJob struct {
	workload, algorithm string
	budget              int
}

var daemonMix = []mixJob{
	{"tpch", algo.NameMCTS, 2000},
	{"job", algo.NameTwoPhase, 1000},
	{"tpch", algo.NameAutoAdmin, 1000},
	{"job", algo.NameMCTS, 1000},
}

// mixSpec is the i-th job of a run: the mix cycles, and each cycle takes
// the next seed.
func mixSpec(seed int64, i int) jobs.Spec {
	m := daemonMix[i%len(daemonMix)]
	return jobs.Spec{
		Workload: m.workload, Algorithm: m.algorithm, K: 10, Budget: m.budget,
		Seed:          seed*seedStride + int64(i/len(daemonMix)) + 1,
		DeriveEpsilon: search.DefaultDeriveEpsilon, StopEpsilon: search.DefaultStopEpsilon,
	}
}

// daemon is a running tuned process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// listenWriter takes the daemon's standard output and reports the address
// of its "listening on" line once.
type listenWriter struct {
	buf  []byte
	addr chan string
}

const listenMarker = "listening on "

func (w *listenWriter) Write(p []byte) (int, error) {
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.Index(w.buf, []byte(listenMarker)); i >= 0 {
		if j := bytes.IndexByte(w.buf[i:], '\n'); j >= 0 {
			w.addr <- string(bytes.TrimSpace(w.buf[i+len(listenMarker) : i+j]))
			w.addr, w.buf = nil, nil
		}
	}
	return len(p), nil
}

// startDaemon execs tuned and waits until it listens.
func startDaemon(path string) (*daemon, error) {
	lw := &listenWriter{addr: make(chan string, 1)}
	addr := lw.addr
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-max-jobs", strconv.Itoa(daemonClients),
		"-cache-bytes", strconv.Itoa(daemonCacheBytes))
	cmd.Stdout = lw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tuned: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case d.url = <-addr:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("tuned exited before listening: %v", err)
	case <-time.After(startTimeout):
		_ = cmd.Process.Kill() // the wait below reports the outcome
		<-d.exited
		return nil, errors.New("tuned did not start listening")
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stopping tuned: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("tuned drain: %w", err)
		}
		return nil
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		<-d.exited
		return errors.New("tuned did not drain")
	}
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	i         int
	submitAt  time.Time // POST sent
	submitted time.Time // POST answered
	firstAt   time.Time // first trace line received
	doneAt    time.Time // job-summary received
	snap      jobs.Snapshot
	episodes  int64
	stream    []byte // the trace events, when captured
	err       error
}

// client talks to one daemon over at most daemonClients connections.
type client struct {
	http *http.Client
	url  string
	now  clock
}

func newClient(now clock, url string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}},
		url:  url,
		now:  now,
	}
}

var episodeKind = []byte(`"kind":"episode"`)

// run submits one job and follows its trace stream to the summary.
func (c *client) run(i int, spec jobs.Spec, capture bool) jobRecord {
	rec := jobRecord{i: i}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.submitAt = c.now()
	resp, err := c.http.Post(c.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	var snap jobs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	rec.submitted = c.now()
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("submit returned %s", resp.Status)
		return rec
	}
	if err != nil {
		rec.err = fmt.Errorf("decoding submit response: %w", err)
		return rec
	}

	resp, err = c.http.Get(c.url + "/jobs/" + snap.ID + "/trace")
	if err != nil {
		rec.err = fmt.Errorf("trace: %w", err)
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("trace returned %s", resp.Status)
		return rec
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var lastEpisode []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && rec.firstAt.IsZero() {
			rec.firstAt = c.now()
		}
		if bytes.HasPrefix(line, summaryPrefix) {
			rec.doneAt = c.now()
			var sum struct {
				Job jobs.Snapshot `json:"job"`
			}
			if err := json.Unmarshal(line, &sum); err != nil {
				rec.err = fmt.Errorf("decoding job summary: %w", err)
			}
			rec.snap = sum.Job
			// A reader that falls behind a finished job misses the part of
			// the stream the daemon trimmed, but never the tail: the last
			// episode's number counts them all.
			if lastEpisode != nil {
				var ev trace.Event
				if err := json.Unmarshal(lastEpisode, &ev); err != nil {
					rec.err = fmt.Errorf("decoding episode event: %w", err)
				}
				rec.episodes = int64(ev.Episode) + 1
			}
			// Drain the end of the response so the connection is reused.
			_, _ = io.Copy(io.Discard, br)
			return rec
		}
		if bytes.Contains(line, episodeKind) {
			lastEpisode = append(lastEpisode[:0], line...)
		}
		if capture {
			rec.stream = append(rec.stream, line...)
		}
		if err != nil {
			rec.err = fmt.Errorf("trace stream ended without a summary: %v", err)
			return rec
		}
	}
}

// drive runs the closed loop over cal's window: daemonClients clients each
// take the next job index, run it with run and take another, until the
// window has passed and at least min jobs completed. Every calibrateEvery
// the loop stops handing out jobs, lets the ones in flight finish, and
// samples the calibration kernel while the daemon is idle. atMin runs when
// the min-th job completes. Records come back in job order.
func drive(cal *calibrator, run func(i int) jobRecord, min int, atMin func()) []jobRecord {
	todo := make(chan int)
	done := make(chan jobRecord)
	var wg sync.WaitGroup
	for k := 0; k < daemonClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				done <- run(i)
			}
		}()
	}
	var recs []jobRecord
	next, inflight := 0, 0
	for {
		over := cal.now().Sub(cal.start) >= cal.window && len(recs) >= min
		pause := over || cal.due()
		if pause && inflight == 0 {
			if over {
				break
			}
			cal.sample()
			continue
		}
		var r jobRecord
		if !pause && inflight < daemonClients {
			select {
			case todo <- next:
				next++
				inflight++
				continue
			case r = <-done:
			}
		} else {
			r = <-done
		}
		inflight--
		recs = append(recs, r)
		if len(recs) == min && atMin != nil {
			atMin()
		}
	}
	close(todo)
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i })
	return recs
}

// checkJob returns why a finished job is wrong, or nil.
func checkJob(r jobRecord) error {
	if r.err != nil {
		return r.err
	}
	if r.snap.State != jobs.StateDone {
		return fmt.Errorf("state %q (%s)", r.snap.State, r.snap.Error)
	}
	res := r.snap.Result
	switch {
	case res == nil:
		return errors.New("no result")
	case res.WhatIfCalls > r.snap.Budget:
		return fmt.Errorf("used %d calls of a %d budget", res.WhatIfCalls, r.snap.Budget)
	case res.EarlyStopped && res.WhatIfCalls+res.RefundedBudget != r.snap.Budget:
		return fmt.Errorf("stopped early with used %d + refunded %d != budget %d", res.WhatIfCalls, res.RefundedBudget, r.snap.Budget)
	case len(res.Indexes) > r.snap.K:
		return fmt.Errorf("%d indexes for K=%d", len(res.Indexes), r.snap.K)
	case math.IsNaN(res.ImprovementPct) || res.ImprovementPct < 0 || res.ImprovementPct > 100:
		return fmt.Errorf("improvement %v outside [0, 100]", res.ImprovementPct)
	}
	return nil
}

// checkAgainstLibrary compares a job of the first mix cycle with an
// in-process run of the same spec.
func checkAgainstLibrary(r jobRecord, spec jobs.Spec) error {
	inst, err := buildInstance(spec.Workload)
	if err != nil {
		return err
	}
	sp := sessionSpec{workload: spec.Workload, algorithm: spec.Algorithm, k: spec.K, budget: spec.Budget,
		deriveEps: spec.DeriveEpsilon, stopEps: spec.StopEpsilon}
	want, _, err := sp.session(inst, spec.Seed, nil)
	if err != nil {
		return err
	}
	got := r.snap.Result
	if got.ImprovementPct != want.ImprovementPct || got.WhatIfCalls != want.WhatIfCalls {
		return fmt.Errorf("daemon gave %v%% in %d calls, library %v%% in %d calls",
			got.ImprovementPct, got.WhatIfCalls, want.ImprovementPct, want.WhatIfCalls)
	}
	if key, err := configKey(inst, got.Indexes); err != nil || key != want.Config.Key() {
		return fmt.Errorf("daemon returned %v, library {%s} (%v)", got.Indexes, want.Config.Key(), err)
	}
	return nil
}

// checkJobs counts every record as attempted and every wrong one as
// failed; the first mix cycle is also checked against the library.
func checkJobs(recs []jobRecord, seed int64, rep *report) {
	for _, r := range recs {
		rep.Attempted++
		err := checkJob(r)
		if err == nil && r.i < len(daemonMix) {
			err = checkAgainstLibrary(r, mixSpec(seed, r.i))
		}
		if err != nil {
			rep.fail("%s job %d: %v", daemonName, r.i, err)
		}
	}
}

// measure is the untraced run: the end-to-end metrics.
func (ds daemonSpec) measure(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	var d *daemon
	for start := cfg.now(); len(setups) < setupReps || cfg.now().Sub(start) < setupTime; {
		var next *daemon
		took, err := timedAtReference(cfg.now, func() error {
			var err error
			next, err = startDaemon(cfg.tuned)
			return err
		})
		if d != nil {
			if serr := d.stop(); serr != nil && err == nil {
				err = serr
			}
		}
		if err != nil {
			if next != nil {
				_ = next.stop() // already failing with err
			}
			return nil, err
		}
		setups = append(setups, took.Seconds())
		d = next
	}

	var rss float64
	var rssErr error
	cal := newCalibrator(cfg.now, cfg.now(), cfg.window)
	c := newClient(cfg.now, d.url)
	recs := drive(cal, func(i int) jobRecord { return c.run(i, mixSpec(cfg.seed, i), false) }, ds.quality, func() {
		rss, rssErr = peakRSS(d.pid())
	})
	end := cfg.now()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	checkJobs(recs, cfg.seed, rep)

	var lat, improvement, calls []float64
	var n [rounds]int
	for _, r := range recs {
		if r.err != nil || r.snap.Result == nil {
			continue
		}
		at := r.doneAt.Sub(cal.start)
		lat = append(lat, ms(cal.scale(r.doneAt.Sub(r.submitAt), at)))
		n[roundOf(at, cfg.window)]++
		if r.i < ds.quality {
			improvement = append(improvement, r.snap.Result.ImprovementPct)
			calls = append(calls, float64(r.snap.Result.WhatIfCalls))
		}
	}
	// Jobs per second of each round's time at reference speed, leaving out
	// the kernel samples themselves.
	var perRound []float64
	slice := cfg.window / rounds
	for k := range n {
		dur := slice
		if k == rounds-1 {
			dur = end.Sub(cal.start) - slice*(rounds-1)
		}
		for _, kd := range cal.samples[k] {
			dur -= kd
		}
		perRound = append(perRound, float64(n[k])/(dur.Seconds()*cal.factor(k)))
	}
	rep.scale = cal.windowFactor()
	endToEnd(rep, median(perRound), lat, improvement, calls, setups, rss)
	return rep.finish(), nil
}

// oracleTotals sums the daemon's /stats cache counters over its oracles.
type oracleTotals struct{ hits, misses, evictions, resident int64 }

func (c *client) oracleTotals() (oracleTotals, error) {
	resp, err := c.http.Get(c.url + "/stats")
	if err != nil {
		return oracleTotals{}, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		Oracles []jobs.OracleStat `json:"oracles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return oracleTotals{}, fmt.Errorf("decoding stats: %w", err)
	}
	var t oracleTotals
	for _, o := range st.Oracles {
		t.hits += o.Cache.Hits
		t.misses += o.Cache.Misses
		t.evictions += o.Cache.Evictions
		t.resident += o.Cache.ResidentBytes
	}
	return t, nil
}

// traced is the traced pass of daemon-mixed. The daemon itself is
// observed only from outside (client timestamps, job snapshots, /stats and
// /proc), which adds no work to it. The CPU shares come from the same job
// mix run in this process through internal/jobs — the daemon minus its
// HTTP front end — under the profiler, and the replay uses the event
// streams of the daemon's first mix cycle.
func (daemonSpec) traced(cfg runConfig) (*report, error) {
	rep := newReport()
	d, err := startDaemon(cfg.tuned)
	if err != nil {
		return nil, err
	}
	recs, err := observeDaemon(cfg, d, rep)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	checkJobs(recs, cfg.seed, rep)
	if err := replayJobs(cfg, recs, rep); err != nil {
		return nil, err
	}
	if err := profileJobs(cfg, rep); err != nil {
		return nil, err
	}
	return rep.finish(), nil
}

// observeDaemon drives the daemon for half the window, capturing the first
// mix cycle's event streams, and reports what the clients, /stats and /proc
// saw.
func observeDaemon(cfg runConfig, d *daemon, rep *report) ([]jobRecord, error) {
	c := newClient(cfg.now, d.url)
	stats0, err := c.oracleTotals()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	// The event streams of two mix cycles are kept for the replay, so that
	// streams the daemon trimmed under a slow reader leave complete ones.
	recs := drive(newCalibrator(cfg.now, cfg.now(), cfg.window/2), func(i int) jobRecord {
		return c.run(i, mixSpec(cfg.seed, i), i < 2*len(daemonMix))
	}, len(daemonMix), nil)
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	stats1, err := c.oracleTotals()
	if err != nil {
		return nil, err
	}
	jobLayerMetrics(recs, cpu1-cpu0, stats0, stats1, rep)
	return recs, nil
}

// jobLayerMetrics reports the job lifecycle, daemon CPU, oracle cache and
// per-job budget counts of the daemon stretch.
func jobLayerMetrics(recs []jobRecord, cpu time.Duration, s0, s1 oracleTotals, rep *report) {
	var submit, first, queue, run, tail []float64
	var charged, repeats, boundHits, refunded, episodes, extracts int64
	for _, r := range recs {
		snap := r.snap
		if r.err != nil || snap.Result == nil || snap.CreatedAt == nil || snap.StartedAt == nil || snap.FinishedAt == nil {
			continue
		}
		submit = append(submit, ms(r.submitted.Sub(r.submitAt)))
		first = append(first, ms(r.firstAt.Sub(r.submitAt)))
		queue = append(queue, ms(snap.StartedAt.Sub(*snap.CreatedAt)))
		run = append(run, ms(snap.FinishedAt.Sub(*snap.StartedAt)))
		tail = append(tail, ms(r.doneAt.Sub(*snap.FinishedAt)))
		res := snap.Result
		charged += int64(res.WhatIfCalls)
		repeats += res.CacheHits
		boundHits += res.DerivedBoundHits
		refunded += int64(res.RefundedBudget)
		episodes += r.episodes
		extracts += extractCalls(snap.Algorithm, search.DefaultStopEpsilon, r.episodes)
	}
	n := len(run)
	per := func(v int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	rep.set("jobs.submit_ms_p50", percentile(submit, 50), "ms", n)
	rep.set("jobs.first_event_ms_p50", percentile(first, 50), "ms", n)
	rep.set("jobs.queue_wait_ms_p50", percentile(queue, 50), "ms", n)
	rep.set("jobs.run_ms_p50", percentile(run, 50), "ms", n)
	rep.set("jobs.run_ms_p90", percentile(run, 90), "ms", n)
	rep.set("jobs.stream_tail_ms_p50", percentile(tail, 50), "ms", n)
	rep.set("daemon.cpu_ms_per_job", per(cpu.Milliseconds()), "ms", n)
	rep.set("search.charged", per(charged), "count", n)
	rep.set("search.repeat_hits", per(repeats), "count", n)
	rep.set("search.bound_hits", per(boundHits), "count", n)
	rep.set("search.bound_hit_ratio", ratio(boundHits, boundHits+charged), "ratio", n)
	rep.set("core.episodes", per(episodes), "count", n)
	rep.set("greedy.extract_calls", per(extracts), "count", n)
	rep.set("earlystop.refunded", per(refunded), "count", n)
	rep.set("whatif.cache_hit_rate", ratio(s1.hits-s0.hits, s1.hits-s0.hits+s1.misses-s0.misses), "ratio", n)
	rep.set("whatif.evictions_per_job", per(s1.evictions-s0.evictions), "count", n)
	rep.set("whatif.resident_mb", float64(s1.resident)/(1<<20), "MiB", 1)
}

// replayJobs replays the complete captured streams.
func replayJobs(cfg runConfig, recs []jobRecord, rep *report) error {
	var times replayTimes
	for _, r := range recs {
		if r.stream == nil || r.err != nil || r.snap.Result == nil {
			continue
		}
		spec := mixSpec(cfg.seed, r.i)
		inst, err := buildInstance(spec.Workload)
		if err != nil {
			return err
		}
		c := replayCase{inst: inst, k: spec.K, budget: spec.Budget, deriveEps: spec.DeriveEpsilon,
			stream: r.stream, checkExtract: spec.Algorithm == algo.NameMCTS}
		if c.checkExtract {
			if c.extracted, err = configKey(inst, r.snap.Result.Indexes); err != nil {
				return err
			}
		}
		err = replay(cfg.now, c, &times)
		if errors.Is(err, errIncomplete) {
			continue
		}
		rep.Attempted++
		if err != nil {
			rep.fail("%s replay of job %d: %v", daemonName, r.i, err)
		}
	}
	replayMetrics(&times, rep)
	return nil
}

// configKey maps a job result's index DDL back onto candidate ordinals and
// returns the configuration's key.
func configKey(inst instance, indexes []string) (string, error) {
	ord := make(map[string]int, len(inst.cands.Candidates))
	for i, c := range inst.cands.Candidates {
		ord[c.Index.String()] = i
	}
	var cfg iset.Set
	for _, ix := range indexes {
		o, ok := ord[ix]
		if !ok {
			return "", fmt.Errorf("unknown index %s", ix)
		}
		cfg.Add(o)
	}
	return cfg.Key(), nil
}

// driveManager runs the job mix through an in-process jobs.Manager set up
// like the daemon over cal's window, each job followed through its trace
// stream to the end, with the closed loop of drive. Failures count in rep.
// It returns every job's completion offset, in order.
func driveManager(cal *calibrator, seed int64, min int, rep *report) []time.Duration {
	m := jobs.NewManager(jobs.Options{MaxConcurrent: daemonClients, CacheBytes: daemonCacheBytes})
	recs := drive(cal, func(i int) jobRecord {
		r := jobRecord{i: i}
		j, err := m.Submit(mixSpec(seed, i))
		if err != nil {
			r.err = err
			return r
		}
		for off, open := 0, true; open; {
			var wake <-chan struct{}
			_, off, open, wake = j.Stream().Next(off)
			if open {
				<-wake
			}
		}
		<-j.Done()
		r.doneAt = cal.now()
		if st := j.State(); st != jobs.StateDone {
			r.err = fmt.Errorf("state %q: %v", st, j.Err())
		}
		return r
	}, min, nil)
	_ = m.Drain(context.Background()) // every job is already terminal
	var finished []time.Duration
	for _, r := range recs {
		rep.Attempted++
		if r.err != nil {
			rep.fail("%s in-process job %d: %v", daemonName, r.i, r.err)
		}
		finished = append(finished, r.doneAt.Sub(cal.start))
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a] < finished[b] })
	return finished
}

// profileJobs profiles the in-process job mix: an unprofiled stretch, then
// a profiled one, giving the CPU shares, the allocation per job and the
// profiler's overhead.
func profileJobs(cfg runConfig, rep *report) error {
	plain := driveManager(newCalibrator(cfg.now, cfg.now(), cfg.window/8), cfg.seed, 1, rep)
	var profiled []time.Duration
	samples, alloc, err := profile(func() {
		profiled = driveManager(newCalibrator(cfg.now, cfg.now(), cfg.window/4), cfg.seed, len(plain), rep)
	})
	if err != nil {
		return err
	}
	profileShares(samples, rep)
	n := len(profiled)
	rep.set("gc.alloc_mb_per_session", float64(alloc)/(1<<20)/float64(n), "MiB", n)
	// The time both stretches took to finish the jobs the shorter one ran.
	k := len(plain)
	overhead := 100 * (float64(profiled[k-1])/float64(plain[k-1]) - 1)
	rep.set("traced_overhead_pct", overhead, "%", k)
	return nil
}
