package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

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
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("case %d: bad spec accepted: %+v", i, spec)
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
