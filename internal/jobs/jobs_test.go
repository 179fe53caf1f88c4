package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"indextune/internal/algo"
	"indextune/internal/core"
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/trace"
)

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

// N concurrent jobs over one built-in workload share one oracle; every
// job's spend accounting must stay session-local — budgets respected,
// results deterministic per seed, no leakage between sessions. Run with
// -race this doubles as the concurrency soundness check for the shared
// optimizer path.
func TestManagerConcurrentJobsShareOracle(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 4})
	const n = 8
	jobsOut := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := m.Submit(Spec{Workload: "tpch", Budget: 60, K: 4, Seed: int64(1 + i%2)})
		if err != nil {
			t.Fatal(err)
		}
		jobsOut[i] = j
	}
	for _, j := range jobsOut {
		waitTerminal(t, j)
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s: state %s, err %v", j.ID, st, j.Err())
		}
		res := j.Result()
		if res == nil {
			t.Fatalf("job %s: nil result", j.ID)
		}
		if res.WhatIfCalls > 60 {
			t.Fatalf("job %s: budget exceeded: %d > 60", j.ID, res.WhatIfCalls)
		}
		if res.Cancelled || res.RefundedBudget != 0 {
			t.Fatalf("job %s: spurious cancellation accounting: %+v", j.ID, res)
		}
		if len(res.Indexes) == 0 || len(res.Indexes) > 4 {
			t.Fatalf("job %s: %d indexes", j.ID, len(res.Indexes))
		}
		// Spend invariant of the trace layer: summed phase spend equals the
		// session's charged calls.
		if res.Trace == nil {
			t.Fatalf("job %s: missing trace summary", j.ID)
		}
	}
	// One oracle per schema: all jobs named the same workload.
	m.oracleMu.Lock()
	oracles := len(m.oracles)
	m.oracleMu.Unlock()
	if oracles != 1 {
		t.Fatalf("expected 1 shared oracle, have %d", oracles)
	}
	// Same seed ⇒ identical outcome even though the jobs raced over one
	// shared optimizer: accounting never leaks across sessions.
	for i := 2; i < n; i++ {
		a, b := jobsOut[i-2].Result(), jobsOut[i].Result()
		if a.ImprovementPct != b.ImprovementPct || a.WhatIfCalls != b.WhatIfCalls {
			t.Fatalf("same-seed jobs diverged: %+v vs %+v", a, b)
		}
	}
}

// Cancelling a running job must refund the unspent budget exactly:
// Used + RefundedBudget == Budget.
func TestManagerCancelRunningRefundsExactly(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	const budget = 500000
	j, err := m.Submit(Spec{Workload: "tpch", Budget: budget, K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job has demonstrably started spending (first trace
	// bytes), then cancel.
	deadline := time.After(60 * time.Second)
	for {
		data, _, _, wake := j.Stream().Next(0)
		if len(data) > 0 {
			break
		}
		select {
		case <-wake:
		case <-deadline:
			t.Fatal("job produced no trace output")
		}
	}
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state %s, want cancelled (err %v)", st, j.Err())
	}
	res := j.Result()
	if res == nil || !res.Cancelled {
		t.Fatalf("cancelled job must carry a partial result: %+v", res)
	}
	if res.WhatIfCalls+res.RefundedBudget != budget {
		t.Fatalf("refund invariant broken: used %d + refunded %d != budget %d",
			res.WhatIfCalls, res.RefundedBudget, budget)
	}
	// The trace stream records the cancel event and the summary counts it.
	if res.Trace.Cancellations != 1 {
		t.Fatalf("trace cancellations = %d, want 1", res.Trace.Cancellations)
	}
	if !bytes.Contains(j.Stream().Bytes(), []byte(`"`+string(trace.KindCancel)+`"`)) {
		t.Fatal("cancel event missing from the trace stream")
	}
}

// A queued job cancelled before dispatch finishes as cancelled without a
// result and without ever spending budget.
func TestManagerCancelQueued(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	running, err := m.Submit(Spec{Workload: "tpch", Budget: 100000, K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Workload: "tpch", Budget: 50, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateQueued {
		t.Fatalf("second job should queue behind MaxConcurrent=1, state %s", st)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, queued)
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued cancel: state %s", st)
	}
	if queued.Result() != nil {
		t.Fatal("never-started job must not carry a result")
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, running)
}

// Admission control: a tenant's queued+running budget may not exceed the
// cap; other tenants are unaffected; capacity frees when jobs finish.
func TestManagerTenantBudgetCap(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, TenantBudget: 100})
	// A third tenant's long job holds the single run slot, so alice's job
	// stays queued — non-terminal, its budget still on her ledger — through
	// the over-cap and other-tenant submissions, however fast it would run.
	blocker, err := m.Submit(Spec{Workload: "real-m", Budget: 100, Tenant: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(Spec{Workload: "tpch", Budget: 80, K: 4, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Workload: "tpch", Budget: 30, K: 4, Tenant: "alice"}); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("over-cap submission: err = %v, want ErrTenantBudget", err)
	}
	if _, err := m.Submit(Spec{Workload: "tpch", Budget: 30, K: 4, Tenant: "bob"}); err != nil {
		t.Fatalf("other tenant must be unaffected: %v", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a)
	// alice's capacity frees once her job is terminal.
	b, err := m.Submit(Spec{Workload: "tpch", Budget: 90, K: 4, Tenant: "alice"})
	if err != nil {
		t.Fatalf("capacity not released after completion: %v", err)
	}
	waitTerminal(t, b)
}

// Spec validation fails fast at Submit.
func TestManagerSubmitValidation(t *testing.T) {
	m := NewManager(Options{})
	cases := []Spec{
		{},                            // no budget
		{Budget: 10},                  // no workload
		{Workload: "nope", Budget: 1}, // unknown workload
		{Workload: "tpch", Budget: 1, Algorithm: "nope"},
		{Workload: "tpch", WorkloadJSON: json.RawMessage(`{}`), Budget: 1}, // both
		{WorkloadJSON: json.RawMessage(`{not json`), Budget: 1},
		{Workload: "tpch", Budget: 1, StopEpsilon: -1},
		{Workload: "tpch", Budget: 1, StopEpsilon: math.NaN()},
		{Workload: "tpch", Budget: 1, StopEpsilon: math.Inf(1)},
		{Workload: "tpch", Budget: 1, DeriveEpsilon: math.NaN()},
		{Workload: "tpch", Budget: 1, DeriveEpsilon: math.Inf(1)},
		{Workload: "tpch", Budget: 1, DeriveEpsilon: math.Inf(-1)},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
}

// Submitting a built-in workload checks its name without synthesizing it:
// Real-M's synthesis alone allocates tens of thousands of objects, while
// the name check allocates a handful.
func TestSpecNormalizeBuildsNoWorkload(t *testing.T) {
	for _, name := range []string{"real-m", "Real-D", "tpch"} {
		allocs := testing.AllocsPerRun(20, func() {
			s := Spec{Workload: name, Budget: 1}
			if _, err := s.normalize(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("normalizing a %s spec allocates %v objects, want a name check's few", name, allocs)
		}
	}
}

// Spec.Workers is clamped below at 0 and refused above MaxWorkers: each
// worker costs the job an episode slot and a goroutine.
func TestSpecWorkersBound(t *testing.T) {
	for _, tc := range []struct {
		workers, want int
		ok            bool
	}{
		{-3, 0, true},
		{MaxWorkers, MaxWorkers, true},
		{MaxWorkers + 1, 0, false},
		{100000000, 0, false},
	} {
		s := Spec{Workload: "tpch", Budget: 1, Workers: tc.workers}
		_, err := s.normalize()
		if (err == nil) != tc.ok {
			t.Fatalf("workers=%d: err = %v, want ok=%v", tc.workers, err, tc.ok)
		}
		if tc.ok && s.Workers != tc.want {
			t.Errorf("workers=%d normalized to %d, want %d", tc.workers, s.Workers, tc.want)
		}
	}
}

// Spec.Budget and Spec.K are refused above MaxBudget and MaxK, and
// accepted at the bounds.
func TestSpecBudgetAndKBounds(t *testing.T) {
	for _, tc := range []struct {
		budget, k int
		ok        bool
	}{
		{MaxBudget, MaxK, true},
		{MaxBudget + 1, 10, false},
		{1 << 40, 10, false},
		{100, MaxK + 1, false},
		{100, 1 << 40, false},
	} {
		s := Spec{Workload: "tpch", Budget: tc.budget, K: tc.k}
		if _, err := s.normalize(); (err == nil) != tc.ok {
			t.Fatalf("budget=%d k=%d: err = %v, want ok=%v", tc.budget, tc.k, err, tc.ok)
		}
	}
}

// inlineWorkload renders an inline workload of one table with the given
// number of columns and the given number of single-table queries.
func inlineWorkload(queries, columns int) json.RawMessage {
	var sb strings.Builder
	sb.WriteString(`{"name":"w","database":{"name":"d","tables":[{"name":"t","rows":100,"columns":[`)
	for c := 0; c < columns; c++ {
		if c > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name":"c%d","ndv":10,"width":4}`, c)
	}
	sb.WriteString(`]}]},"queries":[`)
	for q := 0; q < queries; q++ {
		if q > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":"q%d","refs":[{"table":"t","need":["c0"]}]}`, q)
	}
	sb.WriteString(`]}`)
	return json.RawMessage(sb.String())
}

// An inline workload is refused above MaxQueries queries or MaxColumns
// columns, and accepted at the bounds.
func TestSpecWorkloadSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		queries, columns int
		ok               bool
	}{
		{MaxQueries, 1, true},
		{1, MaxColumns, true},
		{MaxQueries + 1, 1, false},
		{1, MaxColumns + 1, false},
	} {
		s := Spec{WorkloadJSON: inlineWorkload(tc.queries, tc.columns), Budget: 10}
		if _, err := s.normalize(); (err == nil) != tc.ok {
			t.Fatalf("%d queries, %d columns: err = %v, want ok=%v", tc.queries, tc.columns, err, tc.ok)
		}
	}
}

// An inline workload whose column name holds an index ID's delimiter is
// refused, so the daemon answers 400 for it.
func TestSpecRefusesIDDelimiterNames(t *testing.T) {
	wj := `{"name":"w","database":{"name":"d","tables":[{"name":"t","rows":100,"columns":[
		{"name":"a,b","ndv":10,"width":4},{"name":"a","ndv":10,"width":4},{"name":"b","ndv":10,"width":4}]}]},
		"queries":[{"id":"q1","refs":[{"table":"t","need":["a,b","a","b"]}]}]}`
	s := Spec{WorkloadJSON: json.RawMessage(wj), Budget: 10}
	if _, err := s.normalize(); err == nil || !strings.Contains(err.Error(), "a,b") {
		t.Fatalf("err = %v, want a refusal naming column a,b", err)
	}
}

// A job whose trace hits a float JSON cannot encode fails with
// encoding/json's error: two queries weighted 1e308 overflow the workload
// cost to +Inf, and the improvement the search reports becomes NaN.
func TestJobFailsOnUnencodableTraceValue(t *testing.T) {
	wj := `{"name":"w","database":{"name":"d","tables":[{"name":"t","rows":100,"columns":[
		{"name":"a","ndv":10,"width":4},{"name":"b","ndv":10,"width":4}]}]},"queries":[
		{"id":"q1","weight":1e308,"refs":[{"table":"t","need":["a"],"filters":[{"column":"a","op":"eq","selectivity":0.1}]}]},
		{"id":"q2","weight":1e308,"refs":[{"table":"t","need":["b"],"filters":[{"column":"b","op":"eq","selectivity":0.1}]}]}]}`
	m := NewManager(Options{MaxConcurrent: 1})
	j, err := m.Submit(Spec{WorkloadJSON: json.RawMessage(wj), Budget: 50, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	const want = "flushing trace: json: unsupported value: NaN"
	if j.State() != StateFailed || j.Err() == nil || j.Err().Error() != want {
		t.Fatalf("state %s, err %v; want failed with %q", j.State(), j.Err(), want)
	}
	// The failing event left no partial line in the replay stream.
	for _, line := range bytes.Split(bytes.TrimSuffix(j.Stream().Bytes(), []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("stream holds a partial line %q", line)
		}
	}
}

// Drain refuses new work, cancels the queue, and — once the context expires
// — cancels running jobs, which still wind down with refunds.
func TestManagerDrain(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	running, err := m.Submit(Spec{Workload: "tpch", Budget: 500000, K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Workload: "tpch", Budget: 50, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = m.Drain(ctx)
	if err == nil {
		// The big job finished inside the grace window (possible on a very
		// fast machine); the drain is still complete.
		t.Log("drain finished without forcing cancellation")
	}
	if _, serr := m.Submit(Spec{Workload: "tpch", Budget: 10}); !errors.Is(serr, ErrDraining) {
		t.Fatalf("post-drain submission: err = %v, want ErrDraining", serr)
	}
	waitTerminal(t, queued)
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job after drain: state %s", st)
	}
	waitTerminal(t, running)
	if res := running.Result(); res != nil && res.Cancelled {
		if res.WhatIfCalls+res.RefundedBudget != 500000 {
			t.Fatalf("drain-cancelled job broke the refund invariant: %+v", res)
		}
	}
}

// The broadcast stream delivers the full event sequence to readers that
// attach late and to readers racing the writer.
func TestBroadcastReplayAndLiveReaders(t *testing.T) {
	b := NewBroadcast()
	var wg sync.WaitGroup
	read := func() string {
		var sb strings.Builder
		off := 0
		for {
			data, next, open, wake := b.Next(off)
			sb.Write(data)
			off = next
			if !open {
				return sb.String()
			}
			<-wake
		}
	}
	results := make([]string, 3)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = read() }() // live reader
	want := ""
	for i := 0; i < 100; i++ {
		chunk := strings.Repeat("x", i%7+1) + "\n"
		want += chunk
		if _, err := b.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	b.Close() // idempotent
	wg.Add(2)
	go func() { defer wg.Done(); results[1] = read() }() // late reader
	go func() { defer wg.Done(); results[2] = read() }()
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Fatalf("reader %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := b.Write([]byte("late")); err == nil {
		t.Fatal("write after Close must fail")
	}
}

type panicAlg struct{}

func (panicAlg) Name() string                       { return "panic" }
func (panicAlg) Enumerate(*search.Session) iset.Set { panic("deliberate test panic") }

// A panic on a job's goroutine fails that job with the panic value and
// stack, frees its run slot and tenant budget, and leaves the manager
// serving: the next job on the same manager completes.
func TestManagerPanicFailsOnlyThatJob(t *testing.T) {
	algorithmByName = func(string, *core.Options) (search.Algorithm, error) { return panicAlg{}, nil }
	t.Cleanup(func() { algorithmByName = algo.ByName })
	m := NewManager(Options{MaxConcurrent: 1, TenantBudget: 60})
	bad, err := m.Submit(Spec{Workload: "tpch", Budget: 60, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad)
	if st := bad.State(); st != StateFailed || bad.Result() != nil {
		t.Fatalf("panicking job: state %s result %+v, want failed with no result", st, bad.Result())
	}
	if msg := bad.Err().Error(); !strings.Contains(msg, "deliberate test panic") || !strings.Contains(msg, "panicAlg.Enumerate") {
		t.Fatalf("error must carry the panic value and stack: %q", msg)
	}
	algorithmByName = algo.ByName
	// The tenant cap admits this job only if the failed job's budget was
	// released, and MaxConcurrent 1 runs it only if its slot was freed.
	good, err := m.Submit(Spec{Workload: "tpch", Budget: 60, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good)
	if st := good.State(); st != StateDone {
		t.Fatalf("next job: state %s, err %v", st, good.Err())
	}
	if c := m.JobCounts(); c.Running != 0 || c.Failed != 1 || c.Done != 1 {
		t.Fatalf("counts %+v", c)
	}
}

// The drain's forced cancel stops a nodba job, which polls no cancellation
// of its own, at its next charged call: the drain returns promptly and the
// job refunds exactly what it did not spend.
func TestManagerDrainCancelsNoDBA(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	const budget = 1_000_000
	j, err := m.Submit(Spec{Workload: "tpch", Algorithm: algo.NameNoDBA, Budget: budget, K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(ctx) }()
	select {
	case err = <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("drain still waiting after 10 s; job state %s", j.State())
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want the forced-cancel deadline", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state %s, want cancelled (err %v)", st, j.Err())
	}
	res := j.Result()
	if res == nil || res.WhatIfCalls+res.RefundedBudget != budget {
		t.Fatalf("refund invariant broken: %+v", res)
	}
}
