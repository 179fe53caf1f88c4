package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indextune/internal/jobs"
	"indextune/internal/workload"
)

func newTestServer(t *testing.T, opts jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	m := jobs.NewManager(opts)
	srv := httptest.NewServer(newServer(m, nil))
	t.Cleanup(srv.Close)
	return srv, m
}

func postJob(t *testing.T, srv *httptest.Server, spec string) jobs.Snapshot {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, buf.String())
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// End-to-end over real HTTP: submit, stream the trace until it completes,
// and check the final summary record carries the finished job.
func TestDaemonSubmitStreamComplete(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{MaxConcurrent: 2})
	snap := postJob(t, srv, `{"workload":"tpch","budget":80,"k":4,"seed":1}`)
	if snap.ID == "" || (snap.State != jobs.StateQueued && snap.State != jobs.StateRunning) {
		t.Fatalf("bad submit snapshot: %+v", snap)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("trace stream too short: %v", lines)
	}
	var final struct {
		Kind string        `json:"kind"`
		Job  jobs.Snapshot `json:"job"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final record not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if final.Kind != "job-summary" || final.Job.State != jobs.StateDone {
		t.Fatalf("final record: %+v", final)
	}
	if final.Job.Result == nil || final.Job.Result.WhatIfCalls > 80 {
		t.Fatalf("summary result bad: %+v", final.Job.Result)
	}
	// Each preceding line is a well-formed trace event.
	for _, l := range lines[:len(lines)-1] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, l)
		}
		if _, ok := ev["kind"]; !ok {
			t.Fatalf("trace line missing kind: %s", l)
		}
	}
}

// Submit → stream live → DELETE mid-run → the stream ends with a cancelled
// summary whose refund accounting is exact.
func TestDaemonCancelMidStream(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{MaxConcurrent: 1})
	const budget = 500000
	snap := postJob(t, srv, fmt.Sprintf(`{"workload":"tpch","budget":%d,"k":8,"seed":2}`, budget))

	resp, err := http.Get(srv.URL + "/jobs/" + snap.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)

	// Read a few live events to prove the job is spending, then cancel it.
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}

	var last string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var final struct {
		Kind string        `json:"kind"`
		Job  jobs.Snapshot `json:"job"`
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("final record not JSON: %v\n%s", err, last)
	}
	if final.Job.State != jobs.StateCancelled {
		t.Fatalf("state after cancel: %+v", final.Job)
	}
	res := final.Job.Result
	if res == nil || !res.Cancelled {
		t.Fatalf("cancelled job must carry the partial result: %+v", res)
	}
	if res.WhatIfCalls+res.RefundedBudget != budget {
		t.Fatalf("refund invariant over HTTP: used %d + refunded %d != %d",
			res.WhatIfCalls, res.RefundedBudget, budget)
	}

	// GET /jobs/{id} agrees with the stream's summary.
	gresp, err := http.Get(srv.URL + "/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var got jobs.Snapshot
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCancelled {
		t.Fatalf("GET after cancel: %+v", got)
	}
}

// SSE framing: Accept: text/event-stream yields data: frames and a final
// event: summary.
func TestDaemonTraceSSE(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{MaxConcurrent: 1})
	snap := postJob(t, srv, `{"workload":"tpch","budget":60,"k":3,"seed":1}`)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/jobs/"+snap.ID+"/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "data: {") {
		t.Fatalf("no SSE data frames:\n%s", body)
	}
	if !strings.Contains(body, "event: summary\n") {
		t.Fatalf("no summary event:\n%s", body)
	}
}

// HTTP error mapping: bad specs 400, unknown jobs 404, tenant over cap 429,
// drained manager 503.
func TestDaemonErrorStatuses(t *testing.T) {
	srv, m := newTestServer(t, jobs.Options{MaxConcurrent: 1, TenantBudget: 500000})
	post := func(spec string) int {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"budget":10}`); got != http.StatusBadRequest {
		t.Fatalf("missing workload: %d", got)
	}
	if got := post(`{"workload":"tpch"}`); got != http.StatusBadRequest {
		t.Fatalf("missing budget: %d", got)
	}
	if got := post(`{"workload":"tpch","budget":10,"bogus":1}`); got != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", got)
	}
	if got := post(`{"workload":"tpch","budget":10,"workers":100000000}`); got != http.StatusBadRequest {
		t.Fatalf("workers over the bound: %d", got)
	}
	// An inline workload whose sort column the table lacks is refused
	// before it reaches the cost model.
	badSort := `{"budget":10,"workload_json":{"name":"w","database":{"name":"d","tables":[
		{"name":"t","rows":100,"columns":[{"name":"a","ndv":10,"width":4}]}]},
		"queries":[{"id":"q1","refs":[{"table":"t","need":["a"],"sort_cols":["zz"]}]}]}}`
	if got := post(badSort); got != http.StatusBadRequest {
		t.Fatalf("inline workload with an unknown sort column: %d", got)
	}
	// The first tenant job exhausts the cap exactly and runs long enough to
	// still hold it when the second submission arrives.
	if got := post(`{"workload":"tpch","budget":500000,"tenant":"a"}`); got != http.StatusAccepted {
		t.Fatalf("first tenant job: %d", got)
	}
	if got := post(`{"workload":"tpch","budget":1,"tenant":"a"}`); got != http.StatusTooManyRequests {
		t.Fatalf("tenant over cap: %d", got)
	}
	resp, err := http.Get(srv.URL + "/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	// Drain force-cancels the big tenant job after the grace period; a
	// deadline error here is the expected forced path, not a failure.
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = m.Drain(dctx)
	if got := post(`{"workload":"tpch","budget":10}`); got != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", got)
	}
}

// POST /jobs bounds its body: an inline Real-M workload, the largest a
// client is expected to send indented, is accepted, and a body one byte
// past maxSpecBytes is refused with 413 before it is decoded.
func TestDaemonSubmitBodyBound(t *testing.T) {
	srv, m := newTestServer(t, jobs.Options{MaxConcurrent: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	var wl bytes.Buffer
	if err := workload.ByName("real-m").WriteJSON(&wl); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(map[string]any{"workload_json": json.RawMessage(wl.Bytes()), "budget": 10, "k": 2})
	if err != nil {
		t.Fatal(err)
	}
	if snap := postJob(t, srv, string(spec)); snap.ID == "" {
		t.Fatal("inline Real-M job: empty snapshot")
	}

	big := `{"workload":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// run()'s exit codes follow the documented convention.
func TestRunExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-definitely-not-a-flag"}, &out, &errb); got != 2 {
		t.Fatalf("bad flag: exit %d, want 2", got)
	}
	if got := run([]string{"stray-arg"}, &out, &errb); got != 2 {
		t.Fatalf("stray arg: exit %d, want 2", got)
	}
	if got := run([]string{"-h"}, &out, &errb); got != 0 {
		t.Fatalf("-h: exit %d, want 0", got)
	}
	if !strings.Contains(errb.String(), "Exit codes: 0 success, 1 runtime error, 2 usage error") {
		t.Fatal("usage does not document the exit codes")
	}
	errb.Reset()
	if got := run([]string{"-addr", "256.256.256.256:1"}, &out, &errb); got != 1 {
		t.Fatalf("unlistenable addr: exit %d, want 1", got)
	}
}

// SSE framing across chunk boundaries: a JSONL line split over two stream
// chunks becomes one data frame, blank lines are skipped, and a final line
// without a newline is flushed at the end of the stream.
func TestSSELineSpanningChunks(t *testing.T) {
	var out bytes.Buffer
	var rem []byte
	for _, chunk := range []string{"{\"kind\":\"a\"}\n{\"kind\":", "\"b\"}\n  \n", "{\"kind\":\"c\"}"} {
		rem = writeSSELines(&out, append(rem, chunk...))
	}
	writeSSEData(&out, rem)
	want := "data: {\"kind\":\"a\"}\n\ndata: {\"kind\":\"b\"}\n\ndata: {\"kind\":\"c\"}\n\n"
	if out.String() != want {
		t.Fatalf("SSE frames:\n%q\nwant\n%q", out.String(), want)
	}
}

// Every shared oracle's snapshot file name resolves back, through
// workload.ByName, to the workload it was saved from.
func TestSnapFileResolvesToWorkload(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.ByName(name)
		f := snapFile(w.Name)
		if got := workload.ByName(strings.TrimSuffix(f, ".snap")); got == nil || got.Name != w.Name {
			t.Fatalf("%s: snapshot file %s does not resolve back to %s", name, f, w.Name)
		}
	}
}
