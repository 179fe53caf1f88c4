// Package jobs is the tuning-as-a-service lifecycle layer behind cmd/tuned:
// a tuning request becomes a Job that moves queued → running → done /
// cancelled / failed, runs as a search.Session against a per-schema what-if
// optimizer shared across jobs, and streams its trace layer live through a
// Broadcast. Cancellation rides the session's early-stop machinery — a
// cancelled job refunds its unspent budget exactly like a StopEpsilon stop
// and still returns the partial recommendation assembled from everything
// learned.
//
// The package holds a *whatif.Optimizer but never queries it directly: all
// spending flows through search.Session, which the budgetguard and
// chargepath analyzers enforce (internal/jobs is cost-guarded).
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indextune/internal/algo"
	"indextune/internal/candgen"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// State is a job's lifecycle state.
type State string

// Lifecycle states. Queued and Running are transient; the other three are
// terminal and close the job's Done channel and trace stream.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Admission-control errors. Handlers map them to distinct HTTP statuses;
// anything else out of Submit is a validation error in the spec.
var (
	// ErrDraining rejects submissions after Drain began.
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrTenantBudget rejects a submission that would push the tenant's
	// summed queued+running what-if budget past the admission cap.
	ErrTenantBudget = errors.New("jobs: tenant budget cap exceeded")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
)

// MaxWorkers bounds Spec.Workers: a job runs one episode slot and one
// goroutine per worker, so an unbounded request could exhaust the daemon.
const MaxWorkers = 64

// Spec is a tuning job request. Exactly one of Workload (a built-in name)
// or WorkloadJSON (the format written by WorkloadSet.WriteJSON) must be
// set; built-in workloads share one what-if optimizer per schema across all
// jobs, inline workloads get a private one.
type Spec struct {
	Workload     string          `json:"workload,omitempty"`
	WorkloadJSON json.RawMessage `json:"workload_json,omitempty"`
	// Algorithm is a name from algo.Names (default "mcts").
	Algorithm string `json:"algorithm,omitempty"`
	// K is the cardinality constraint (default 10).
	K int `json:"k,omitempty"`
	// Budget is the what-if call budget (required, positive).
	Budget int `json:"budget"`
	// Seed drives randomized decisions (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the intra-session MCTS parallelism (0/1 = sequential, at
	// most MaxWorkers).
	Workers int `json:"workers,omitempty"`
	// DeriveEpsilon answers what-if calls from derived bounds within this
	// relative gap without charging budget (0 = off).
	DeriveEpsilon float64 `json:"derive_epsilon,omitempty"`
	// StopEpsilon enables Esc-style early stopping (0 = off).
	StopEpsilon float64 `json:"stop_epsilon,omitempty"`
	// StorageLimitBytes caps total index bytes (0 = unconstrained).
	StorageLimitBytes int64 `json:"storage_limit_bytes,omitempty"`
	// Tenant is the admission-control bucket ("" is a tenant like any
	// other): the summed budget of a tenant's queued+running jobs may not
	// exceed the manager's TenantBudget cap.
	Tenant string `json:"tenant,omitempty"`
}

// normalize applies defaults and validates the spec. It returns the parsed
// inline workload when WorkloadJSON is set (nil for built-ins), so a bad
// request fails at submission rather than inside the job.
func (s *Spec) normalize() (*workload.Workload, error) {
	if s.Budget <= 0 {
		return nil, fmt.Errorf("budget must be positive (got %d)", s.Budget)
	}
	if s.K <= 0 {
		s.K = 10
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers < 0 {
		s.Workers = 0
	}
	if s.Workers > MaxWorkers {
		return nil, fmt.Errorf("workers must be at most %d (got %d)", MaxWorkers, s.Workers)
	}
	if s.DeriveEpsilon < 0 || s.StopEpsilon < 0 {
		return nil, fmt.Errorf("epsilons must be non-negative")
	}
	if s.Algorithm == "" {
		s.Algorithm = algo.NameMCTS
	}
	if _, err := algo.ByName(s.Algorithm, nil); err != nil {
		return nil, err
	}
	if len(s.WorkloadJSON) > 0 {
		if s.Workload != "" {
			return nil, fmt.Errorf("workload and workload_json are mutually exclusive")
		}
		w, err := workload.ReadJSON(bytes.NewReader(s.WorkloadJSON))
		if err != nil {
			return nil, fmt.Errorf("workload_json: %w", err)
		}
		return w, nil
	}
	if s.Workload == "" {
		return nil, fmt.Errorf("one of workload or workload_json is required")
	}
	if workload.ByName(s.Workload) == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", s.Workload, workload.Names())
	}
	return nil, nil
}

// Result is the JSON-friendly outcome of a finished job. For cancelled and
// early-stopped jobs WhatIfCalls + RefundedBudget == Spec.Budget — the
// unspent budget is refunded, not burned.
type Result struct {
	Algorithm        string         `json:"algorithm"`
	ImprovementPct   float64        `json:"improvement_pct"`
	WhatIfCalls      int            `json:"whatif_calls"`
	CacheHits        int64          `json:"cache_hits"`
	DerivedBoundHits int64          `json:"derived_bound_hits"`
	EarlyStopped     bool           `json:"early_stopped,omitempty"`
	Cancelled        bool           `json:"cancelled,omitempty"`
	StopGap          float64        `json:"stop_gap,omitempty"`
	RefundedBudget   int            `json:"refunded_budget,omitempty"`
	Indexes          []string       `json:"indexes"`
	Trace            *trace.Summary `json:"trace,omitempty"`
}

// Snapshot is a point-in-time JSON view of a job.
type Snapshot struct {
	ID         string     `json:"id"`
	State      State      `json:"state"`
	Workload   string     `json:"workload"`
	Algorithm  string     `json:"algorithm"`
	K          int        `json:"k"`
	Budget     int        `json:"budget"`
	Tenant     string     `json:"tenant,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *Result    `json:"result,omitempty"`
	CreatedAt  *time.Time `json:"created_at,omitempty"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Job is one tuning run moving through the lifecycle. All fields behind mu;
// the ctx/cancel pair carries cancellation into the session's commit points.
type Job struct {
	ID   string
	Spec Spec

	ctx    context.Context
	cancel context.CancelFunc
	stream *Broadcast
	done   chan struct{}
	inline *workload.Workload // parsed WorkloadJSON; nil for built-ins
	now    func() time.Time   // Options.Now; nil leaves timestamps zero

	mu       sync.Mutex
	state    State
	err      error
	result   *Result
	created  time.Time
	started  time.Time
	finished time.Time
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure cause (nil unless StateFailed).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the outcome (nil until the job reaches a terminal state;
// cancelled jobs carry the partial result).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Stream is the job's trace event stream (JSONL; complete replay for late
// readers, closed at terminal state).
func (j *Job) Stream() *Broadcast { return j.stream }

// Cancel requests cancellation. Running jobs observe it at the session's
// next commit point, wind down with the early-stop refund semantics, and
// finish as StateCancelled with a partial result; terminal jobs ignore it.
func (j *Job) Cancel() { j.cancel() }

// Snapshot returns a point-in-time JSON view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	wname := j.Spec.Workload
	if wname == "" {
		wname = "(inline)"
	}
	s := Snapshot{
		ID:        j.ID,
		State:     j.state,
		Workload:  wname,
		Algorithm: j.Spec.Algorithm,
		K:         j.Spec.K,
		Budget:    j.Spec.Budget,
		Tenant:    j.Spec.Tenant,
		Result:    j.result,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.created.IsZero() {
		t := j.created
		s.CreatedAt = &t
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// setState transitions into a non-terminal state.
func (j *Job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	if s == StateRunning && j.now != nil {
		j.started = j.now()
	}
}

// finish moves the job into a terminal state exactly once and closes Done
// and the trace stream. Later calls are no-ops, so a Cancel racing the
// natural completion cannot double-close.
func (j *Job) finish(s State, res *Result, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.result = res
	j.err = err
	if j.now != nil {
		j.finished = j.now()
	}
	j.mu.Unlock()
	close(j.done)
	j.stream.Close()
	j.cancel()
}

// Options configure a Manager.
type Options struct {
	// MaxConcurrent caps simultaneously running jobs (default 2); excess
	// submissions queue in FIFO order.
	MaxConcurrent int
	// TenantBudget caps the summed what-if budget of one tenant's
	// queued+running jobs; 0 disables the cap.
	TenantBudget int
	// Now supplies the wall-clock source for job lifecycle timestamps
	// (CreatedAt/StartedAt/FinishedAt). The daemon passes time.Now; a nil
	// source leaves the timestamps zero, keeping library use — and tests —
	// free of wall-clock reads (the repo's determinism contract: simulated
	// tuning time is derived from the what-if spend, never the wall clock).
	Now func() time.Time
	// CacheBytes bounds each oracle's what-if cache via
	// whatif.Optimizer.SetCacheBytes — applied to shared and inline oracles
	// alike at construction, before any job can race a resize. 0 keeps the
	// library default (unbounded). Eviction never changes results (PR 1's
	// warm≡cold invariant makes it recomputation-only), so bounded managers
	// stay bit-identical to unbounded ones.
	CacheBytes int64
}

// replayTail bounds each finished job's retained trace-replay buffer:
// after a job reaches a terminal state its Broadcast is trimmed to at most
// this many tail bytes on a line boundary, so late readers still get the
// final summary events while manager memory stops growing with
// completed-job count. Readers attached when the job finishes keep the full
// replay; the trim waits for the last of them to detach. 64 KiB is
// comfortably larger than any final job-summary/trace-summary pair and
// small enough that thousands of completed jobs stay cheap.
const replayTail = 64 << 10

// oracleEntry is the shared per-schema tuning substrate: one workload
// instance, its candidate universe, and one concurrency-safe what-if
// optimizer that every job over that schema runs its session against.
type oracleEntry struct {
	w     *workload.Workload
	cands *candgen.Result
	opt   *whatif.Optimizer
	jobs  atomic.Int64 // jobs executed against this oracle
}

// Manager owns the job table, the FIFO queue, the admission-control
// ledgers, and the shared per-schema oracles.
type Manager struct {
	opts Options

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for List
	queue    []*Job
	running  int
	active   map[string]int // tenant → summed queued+running budget
	seq      int
	draining bool
	wg       sync.WaitGroup // running jobs

	oracleMu sync.Mutex
	oracles  map[string]*oracleEntry // built-in workload name → shared oracle
}

// NewManager builds a manager.
func NewManager(opts Options) *Manager {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	return &Manager{
		opts:    opts,
		jobs:    make(map[string]*Job),
		active:  make(map[string]int),
		oracles: make(map[string]*oracleEntry),
	}
}

// Submit validates spec, applies admission control, and enqueues the job.
// It returns the queued (possibly already running) job, or an error that is
// ErrDraining, ErrTenantBudget, or a spec validation failure.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	inline, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if limit := m.opts.TenantBudget; limit > 0 && m.active[spec.Tenant]+spec.Budget > limit {
		return nil, fmt.Errorf("%w: tenant %q has %d queued of a %d cap, job wants %d",
			ErrTenantBudget, spec.Tenant, m.active[spec.Tenant], limit, spec.Budget)
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:     fmt.Sprintf("job-%04d", m.seq),
		Spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		stream: NewBroadcast(),
		done:   make(chan struct{}),
		inline: inline,
		now:    m.opts.Now,
		state:  StateQueued,
	}
	if m.opts.Now != nil {
		j.created = m.opts.Now()
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.active[spec.Tenant] += spec.Budget
	m.queue = append(m.queue, j)
	m.dispatchLocked()
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels the job with the given ID: a queued job finishes as
// StateCancelled without ever spending budget, a running one winds down at
// its next commit point with the early-stop refund semantics, a terminal
// one is left as is. The returned job reflects the state transition that
// was actually triggered.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.releaseLocked(j)
			m.mu.Unlock()
			j.finish(StateCancelled, nil, nil)
			return j, nil
		}
	}
	m.mu.Unlock()
	j.Cancel()
	return j, nil
}

// Drain stops admissions, cancels everything still queued, and waits for
// running jobs. If ctx expires first the running jobs are cancelled too —
// they wind down with refunds and partial results — and Drain still waits
// for them before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	queued := m.queue
	m.queue = nil
	for _, j := range queued {
		m.releaseLocked(j)
	}
	m.mu.Unlock()
	for _, j := range queued {
		j.finish(StateCancelled, nil, nil)
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.Cancel()
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

// dispatchLocked starts queued jobs while run slots are free. Caller holds
// m.mu.
func (m *Manager) dispatchLocked() {
	for m.running < m.opts.MaxConcurrent && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.running++
		j.setState(StateRunning)
		m.wg.Add(1)
		go m.run(j)
	}
}

// releaseLocked returns a job's budget to its tenant's admission ledger.
// Caller holds m.mu.
func (m *Manager) releaseLocked(j *Job) {
	m.active[j.Spec.Tenant] -= j.Spec.Budget
	if m.active[j.Spec.Tenant] <= 0 {
		delete(m.active, j.Spec.Tenant)
	}
}

// run executes one job to a terminal state and frees its run slot.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	res, err := m.execute(j)
	// Free the tenant's admission budget before the job turns terminal, as
	// Cancel does for queued jobs, so a submission made once Done closes is
	// admitted against the freed capacity.
	m.mu.Lock()
	m.releaseLocked(j)
	m.mu.Unlock()
	switch {
	case err != nil:
		j.finish(StateFailed, nil, err)
	case res.Cancelled:
		j.finish(StateCancelled, res, nil)
	default:
		j.finish(StateDone, res, nil)
	}
	// The stream is closed now; keep only a bounded replay tail so manager
	// memory does not grow with every trace ever produced. Readers still
	// attached hold the trim off until the last detaches; the final summary
	// events always fit in the tail.
	j.stream.Trim(replayTail)
	m.mu.Lock()
	m.running--
	m.dispatchLocked()
	m.mu.Unlock()
}

// execute runs the job's tuning session against the (shared) oracle. The
// optimizer is concurrency-safe and all per-job accounting lives in the
// session, so concurrent jobs over one schema never leak spend, cache hits,
// or simulated time into each other.
func (m *Manager) execute(j *Job) (*Result, error) {
	entry, err := m.oracle(j)
	if err != nil {
		return nil, err
	}
	alg, err := algo.ByName(j.Spec.Algorithm, nil)
	if err != nil {
		return nil, err
	}
	rec := trace.New(j.stream)
	rec.SetAutoFlush(true)
	s := search.NewSession(entry.w, entry.cands, entry.opt, j.Spec.K, j.Spec.Budget, j.Spec.Seed)
	s.Workers = j.Spec.Workers
	s.DeriveEpsilon = j.Spec.DeriveEpsilon
	s.StopEpsilon = j.Spec.StopEpsilon
	s.StorageLimit = j.Spec.StorageLimitBytes
	s.Trace = rec
	s.Ctx = j.ctx
	r := search.Run(alg, s)
	entry.jobs.Add(1)
	// Stamp the oracle's cross-job cache view into the trace summary before
	// the final flush: Stats is pure observability (no cost queries, no
	// budget), so this stays outside the budgetguard-audited spend paths.
	st := s.OracleCacheStats()
	rec.OracleCache(trace.OracleCacheSummary{
		Entries:        st.Entries,
		ResidentBytes:  st.ResidentBytes,
		CapacityBytes:  st.CapacityBytes,
		HitRate:        st.HitRate(),
		Evictions:      st.Evictions,
		PlanSpaces:     st.PlanSpaces,
		PlanSpaceBytes: st.PlanSpaceBytes,
	})
	if err := rec.Flush(); err != nil {
		return nil, fmt.Errorf("flushing trace: %w", err)
	}
	var ddl []string
	for _, ord := range r.Config.Ordinals() {
		ddl = append(ddl, entry.cands.Candidates[ord].Index.String())
	}
	sum := rec.Summary(r.Algorithm, j.Spec.Budget)
	return &Result{
		Algorithm:        r.Algorithm,
		ImprovementPct:   r.ImprovementPct,
		WhatIfCalls:      r.WhatIfCalls,
		CacheHits:        r.CacheHits,
		DerivedBoundHits: r.DerivedBoundHits,
		EarlyStopped:     r.EarlyStopped,
		Cancelled:        r.Cancelled,
		StopGap:          r.StopGap,
		RefundedBudget:   r.RefundedBudget,
		Indexes:          ddl,
		Trace:            &sum,
	}, nil
}

// oracle returns the tuning substrate for the job: the shared per-schema
// entry for built-in workloads (built once, reused by every later job over
// the same name), or a private one for inline workloads — sharing across
// unrelated inline schemas would mismatch candidate universes.
func (m *Manager) oracle(j *Job) (*oracleEntry, error) {
	if j.inline != nil {
		if err := j.inline.Validate(); err != nil {
			return nil, err
		}
		cands := candgen.Generate(j.inline, candgen.Options{})
		opt := search.NewOptimizer(j.inline, cands)
		if m.opts.CacheBytes > 0 {
			opt.SetCacheBytes(m.opts.CacheBytes)
		}
		return &oracleEntry{w: j.inline, cands: cands, opt: opt}, nil
	}
	return m.builtinOracle(j.Spec.Workload)
}

// builtinOracle returns the shared oracle entry for a built-in workload
// name, building (and byte-bounding) it on first use. The cache bound is
// applied before the entry is published, so no job ever observes a resize.
func (m *Manager) builtinOracle(name string) (*oracleEntry, error) {
	w := workload.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	m.oracleMu.Lock()
	defer m.oracleMu.Unlock()
	if e, ok := m.oracles[w.Name]; ok {
		return e, nil
	}
	cands := candgen.Generate(w, candgen.Options{})
	opt := search.NewOptimizer(w, cands)
	if m.opts.CacheBytes > 0 {
		opt.SetCacheBytes(m.opts.CacheBytes)
	}
	e := &oracleEntry{w: w, cands: cands, opt: opt}
	m.oracles[w.Name] = e
	return e, nil
}

// WarmOracle builds (or reuses) the shared oracle for a built-in workload
// without running a job — the daemon's boot hook for loading warm-start
// cache snapshots before the first submission arrives. It returns the
// optimizer and its workload so the caller can validate a snapshot's
// fingerprint against the live schema.
func (m *Manager) WarmOracle(name string) (*whatif.Optimizer, *workload.Workload, error) {
	e, err := m.builtinOracle(name)
	if err != nil {
		return nil, nil, err
	}
	return e.opt, e.w, nil
}

// EachOracle calls f for every shared built-in oracle in sorted workload
// order — the daemon's drain hook for writing cache snapshots. Inline
// (private) oracles are not visited: they die with their job and have no
// restart identity to snapshot under.
func (m *Manager) EachOracle(f func(name string, opt *whatif.Optimizer, w *workload.Workload)) {
	m.oracleMu.Lock()
	names := make([]string, 0, len(m.oracles))
	for name := range m.oracles {
		names = append(names, name)
	}
	entries := make(map[string]*oracleEntry, len(m.oracles))
	for name, e := range m.oracles {
		entries[name] = e
	}
	m.oracleMu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		e := entries[name]
		f(name, e.opt, e.w)
	}
}

// OracleStat is the cross-job cache view of one shared oracle, as served by
// the daemon's GET /stats endpoint.
type OracleStat struct {
	// Workload is the canonical workload name (the shared-oracle key).
	Workload string `json:"workload"`
	// Jobs counts tuning jobs executed against this oracle since boot.
	Jobs int64 `json:"jobs"`
	// HitRate is Cache.HitRate(), denormalized for JSON consumers.
	HitRate float64 `json:"hit_rate"`
	// Cache is the optimizer's live cache accounting.
	Cache whatif.CacheStats `json:"cache"`
}

// OracleStats returns per-oracle cache statistics for every shared built-in
// oracle, sorted by workload name. Pure observability: no cost queries, no
// budget effects.
func (m *Manager) OracleStats() []OracleStat {
	var out []OracleStat
	m.EachOracle(func(name string, opt *whatif.Optimizer, w *workload.Workload) {
		m.oracleMu.Lock()
		e := m.oracles[name]
		m.oracleMu.Unlock()
		st := opt.Stats()
		out = append(out, OracleStat{
			Workload: name,
			Jobs:     e.jobs.Load(),
			HitRate:  st.HitRate(),
			Cache:    st,
		})
	})
	return out
}

// Counts is the job table broken down by lifecycle state.
type Counts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
}

// JobCounts tallies every job ever submitted by current state.
func (m *Manager) JobCounts() Counts {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	var c Counts
	for _, j := range jobs {
		switch j.State() {
		case StateQueued:
			c.Queued++
		case StateRunning:
			c.Running++
		case StateDone:
			c.Done++
		case StateCancelled:
			c.Cancelled++
		case StateFailed:
			c.Failed++
		}
	}
	return c
}
