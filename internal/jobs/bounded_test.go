package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// resultKey projects a Result onto its deterministic fields — the ones the
// bounded-oracle invariant promises are bit-identical regardless of cache
// bounds. CacheHits is excluded on purpose: whether a pair is answered by
// the shared cache depends on cross-job interleaving and eviction timing,
// while the costs, spend, and recommendation never do.
func resultKey(r *Result) string {
	return fmt.Sprintf("%s|%.17g|calls=%d|stopped=%v|gap=%.17g|refund=%d|%s",
		r.Algorithm, r.ImprovementPct, r.WhatIfCalls, r.EarlyStopped,
		r.StopGap, r.RefundedBudget, strings.Join(r.Indexes, ";"))
}

// Eight concurrent same-seed jobs against one oracle whose cache is bounded
// tightly enough to thrash: every job must produce the same result the
// unbounded manager produces, and a cancelled job must still satisfy
// used + refunded == budget. Run with -race this is the eviction soundness
// stress for the shared-oracle path.
func TestBoundedOracleJobsBitIdentical(t *testing.T) {
	spec := Spec{Workload: "tpch", Budget: 80, K: 4, Seed: 3, Workers: 2, StopEpsilon: 0.02}

	ref := NewManager(Options{MaxConcurrent: 1})
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, rj)
	if rj.State() != StateDone {
		t.Fatalf("reference job: %s, err %v", rj.State(), rj.Err())
	}
	want := resultKey(rj.Result())

	// ~40 entries of total cache across 64 shards: constant thrash.
	m := NewManager(Options{MaxConcurrent: 4, CacheBytes: 4096})
	const n = 8
	out := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = j
	}
	for _, j := range out {
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s: %s, err %v", j.ID, j.State(), j.Err())
		}
		if got := resultKey(j.Result()); got != want {
			t.Fatalf("job %s diverged under bounded cache:\n got %s\nwant %s", j.ID, got, want)
		}
	}

	// The bound was real: the oracle saw eviction traffic and stayed within
	// capacity.
	stats := m.OracleStats()
	if len(stats) != 1 {
		t.Fatalf("OracleStats: %d oracles, want 1", len(stats))
	}
	st := stats[0]
	if st.Workload != "TPC-H" || st.Jobs != n {
		t.Fatalf("oracle stat %+v, want TPC-H with %d jobs", st, n)
	}
	if st.Cache.CapacityBytes == 0 || st.Cache.ResidentBytes > st.Cache.CapacityBytes {
		t.Fatalf("resident %d vs capacity %d", st.Cache.ResidentBytes, st.Cache.CapacityBytes)
	}
	if st.Cache.Evictions == 0 {
		t.Fatal("tiny bound produced no evictions — stress is not stressing")
	}

	// Refund invariant under a thrashing cache: cancel a fresh long job
	// mid-flight and check the ledger closes exactly.
	big, err := m.Submit(Spec{Workload: "tpch", Budget: 500000, K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for big.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Cancel(big.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, big)
	res := big.Result()
	if res == nil || !res.Cancelled {
		t.Fatalf("cancelled job result: %+v", res)
	}
	if res.WhatIfCalls+res.RefundedBudget != big.Spec.Budget {
		t.Fatalf("used %d + refunded %d != budget %d",
			res.WhatIfCalls, res.RefundedBudget, big.Spec.Budget)
	}
}

// Every finished job's trace summary carries the oracle's cross-job cache
// view, and the manager's job counts reconcile with what actually ran.
func TestResultCarriesOracleCacheSummary(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 2, CacheBytes: 1 << 20})
	j, err := m.Submit(Spec{Workload: "tpch", Budget: 60, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	res := j.Result()
	if res == nil || res.Trace == nil || res.Trace.OracleCache == nil {
		t.Fatalf("trace summary missing oracle cache view: %+v", res)
	}
	oc := res.Trace.OracleCache
	if oc.Entries == 0 || oc.ResidentBytes == 0 || oc.CapacityBytes != 1<<20 {
		t.Fatalf("oracle cache summary %+v", oc)
	}
	c := m.JobCounts()
	if c.Done != 1 || c.Running != 0 || c.Queued != 0 || c.Cancelled != 0 || c.Failed != 0 {
		t.Fatalf("job counts %+v", c)
	}
}

// Completed jobs keep only a bounded replay tail: manager memory must not
// grow with the number of finished jobs, and what remains must still be
// whole JSONL records ending in the final trace events.
func TestReplayBufferTrimmedAfterTerminal(t *testing.T) {
	const tail = 2 << 10
	m := NewManager(Options{MaxConcurrent: 2, ReplayTailBytes: tail})
	const n = 6
	for i := 0; i < n; i++ {
		j, err := m.Submit(Spec{Workload: "tpch", Budget: 120, K: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	total := 0
	for _, j := range m.List() {
		// Done closes before run() trims; give the trailing trim a moment.
		r := j.Stream().Resident()
		for d := time.Now().Add(5 * time.Second); r > tail && time.Now().Before(d); r = j.Stream().Resident() {
			time.Sleep(time.Millisecond)
		}
		if r > tail {
			t.Fatalf("job %s retains %d bytes, cap %d", j.ID, r, tail)
		}
		total += r

		// A late reader replaying from offset 0 is advanced past the trimmed
		// prefix and still sees only whole lines, each valid JSON.
		data, _, open, _ := j.Stream().Next(0)
		if open {
			t.Fatalf("job %s stream still open after terminal state", j.ID)
		}
		if len(data) == 0 {
			t.Fatalf("job %s replay empty after trim", j.ID)
		}
		if data[len(data)-1] != '\n' {
			t.Fatalf("job %s replay does not end on a record boundary", j.ID)
		}
		for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
			var v map[string]any
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatalf("job %s trimmed replay line is not JSON: %v: %q", j.ID, err, line)
			}
		}
	}
	if total > n*tail {
		t.Fatalf("total retained %d bytes across %d jobs, cap %d", total, n, n*tail)
	}
}

// Negative ReplayTailBytes preserves the pre-trim behaviour: full replay
// forever.
func TestReplayTrimDisabled(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, ReplayTailBytes: -1})
	j, err := m.Submit(Spec{Workload: "tpch", Budget: 200, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	data, _, _, _ := j.Stream().Next(0)
	if len(data) != j.Stream().Resident() || len(data) <= 2<<10 {
		t.Fatalf("untrimmed stream looks trimmed: %d bytes", len(data))
	}
}

// Broadcast.Trim unit semantics: line-boundary cut, absolute offsets, and
// reader offsets from before the trim are clamped forward, never corrupted.
func TestBroadcastTrim(t *testing.T) {
	b := NewBroadcast()
	var lines []string
	for i := 0; i < 100; i++ {
		l := fmt.Sprintf(`{"seq":%d}`+"\n", i)
		lines = append(lines, l)
		if _, err := b.Write([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	whole := strings.Join(lines, "")
	b.Close()

	b.Trim(100)
	if r := b.Resident(); r > 100 {
		t.Fatalf("resident %d after Trim(100)", r)
	}
	data, next, open, _ := b.Next(0)
	if open {
		t.Fatal("trimmed closed stream reports open")
	}
	if next != len(whole) {
		t.Fatalf("next offset %d, want absolute %d", next, len(whole))
	}
	if !strings.HasSuffix(whole, string(data)) || !strings.HasPrefix(string(data), `{"seq":`) {
		t.Fatalf("trimmed replay %q is not a line-aligned tail", data)
	}
	// A reader mid-stream before the trim resumes cleanly after it.
	if d2, _, _, _ := b.Next(len(whole) - len(data) + len(`{"seq":90}`+"\n")); len(d2) >= len(data) {
		t.Fatalf("offset inside the tail returned %d bytes, tail is %d", len(d2), len(data))
	}
	// Trimming everything (no newline in the kept window) empties the buffer.
	b2 := NewBroadcast()
	b2.Write([]byte("no-newline-at-all"))
	b2.Close()
	b2.Trim(4)
	if b2.Resident() != 0 {
		t.Fatalf("resident %d, want 0 when no boundary fits", b2.Resident())
	}
	if _, next, _, _ := b2.Next(0); next != len("no-newline-at-all") {
		t.Fatalf("absolute offset lost: %d", next)
	}
}

// A reader attached before the job finishes holds the replay trim off: it
// still replays every byte from offset 0 after the manager has trimmed the
// finished job, and the trim lands as soon as it detaches.
func TestAttachedReaderDefersReplayTrim(t *testing.T) {
	const tail = 1 << 10
	m := NewManager(Options{MaxConcurrent: 1, ReplayTailBytes: tail})
	j, err := m.Submit(Spec{Workload: "tpch", Budget: 120, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stream()
	st.Attach()
	waitTerminal(t, j)
	// The manager trims before it frees the run slot, so once a second job
	// runs on the single slot the first job's trim has been requested.
	next, err := m.Submit(Spec{Workload: "tpch", Budget: 20, K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, next)

	data, end, open, _ := st.Next(0)
	if open {
		t.Fatal("finished job's stream still open")
	}
	if len(data) != end || len(data) <= tail {
		t.Fatalf("attached reader replays %d of %d bytes (tail %d): stream was trimmed under it", len(data), end, tail)
	}
	if !bytes.HasPrefix(data, []byte("{")) || data[len(data)-1] != '\n' {
		t.Fatalf("replay is not whole JSONL records: %.40q…", data)
	}

	st.Detach()
	if r := st.Resident(); r > tail {
		t.Fatalf("resident %d bytes after the last reader detached, cap %d", r, tail)
	}
	if d2, end2, _, _ := st.Next(0); end2 != end || len(d2) >= len(data) {
		t.Fatalf("after detach: %d bytes ending at %d, want a tail of the %d-byte stream", len(d2), end2, end)
	}
}
