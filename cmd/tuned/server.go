package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"indextune/internal/jobs"
)

// newServer wires the job manager into the HTTP API:
//
//	POST   /jobs            submit a jobs.Spec, returns the job snapshot (202);
//	                        a body over maxSpecBytes is refused (413)
//	GET    /jobs            list all jobs in submission order
//	GET    /jobs/{id}       one job's snapshot
//	GET    /jobs/{id}/trace stream the job's trace layer (SSE or JSONL)
//	DELETE /jobs/{id}       cancel (queued: immediate; running: at the next
//	                        charged call, with the early-stop refund)
//	GET    /stats           cross-job cache observability: job counts,
//	                        per-oracle cache stats, boot snapshot loads
//	GET    /healthz         liveness probe
//
// snaps records the boot-time snapshot loads for /stats (nil when warm-start
// is off).
func newServer(m *jobs.Manager, snaps []snapshotLoad) http.Handler {
	s := &server{m: m, snaps: snaps}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.get)
	mux.HandleFunc("DELETE /jobs/{id}", s.cancel)
	mux.HandleFunc("GET /jobs/{id}/trace", s.trace)
	return mux
}

type server struct {
	m     *jobs.Manager
	snaps []snapshotLoad
}

// stats serves the cross-job cache view: how many jobs are in each state,
// each shared oracle's cache accounting (entries, resident vs capacity
// bytes, lifetime hit rate, evictions, plan spaces), and which snapshots
// warmed the caches at boot. Pure observability — no cost queries, no
// budget side effects.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Jobs      jobs.Counts       `json:"jobs"`
		Oracles   []jobs.OracleStat `json:"oracles"`
		Snapshots []snapshotLoad    `json:"snapshots,omitempty"`
	}{
		Jobs:      s.m.JobCounts(),
		Oracles:   s.m.OracleStats(),
		Snapshots: s.snaps,
	}
	if out.Oracles == nil {
		out.Oracles = []jobs.OracleStat{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxSpecBytes bounds a POST /jobs body. An inline workload_json carries the
// whole schema and query set — Real-M, written indented by WriteJSON, is
// about 2.7 MB and Real-D about 8.5 MB — so the bound leaves room for both
// while keeping one request from buffering unbounded memory.
const maxSpecBytes = 16 << 20

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	j, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// submitStatus maps Submit errors onto statuses: draining is the server's
// condition (503), a tenant over its admission cap should retry later
// (429), everything else is a bad spec (400).
func submitStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrTenantBudget):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	all := s.m.List()
	out := make([]jobs.Snapshot, 0, len(all))
	for _, j := range all {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// trace streams the job's trace event layer — improvement-vs-spend curve
// points, phase spend, stop and cancel events — live while the job runs and
// as a full replay afterwards, then appends one final job-summary record.
// Clients that Accept text/event-stream get SSE frames (one event per JSONL
// line, the summary under `event: summary`); everyone else gets chunked
// JSONL with the summary as a last {"kind":"job-summary"} line.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()

	st := j.Stream()
	st.Attach() // holds off the finished job's replay trim until we are done
	defer st.Detach()
	off := 0
	var rem []byte // partial JSONL line carried across chunks (SSE framing)
	for {
		data, next, open, wake := st.Next(off)
		off = next
		if len(data) > 0 {
			if sse {
				rem = writeSSELines(w, append(rem, data...))
			} else {
				w.Write(data)
			}
			flush()
		}
		if !open {
			break
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
	if sse {
		writeSSEData(w, rem)
	}
	// The stream only closes once the job is terminal, so the snapshot here
	// is final: it carries the result (with the refund accounting for
	// cancelled and early-stopped runs) or the failure cause.
	snap, err := json.Marshal(j.Snapshot())
	if err != nil {
		return
	}
	if sse {
		fmt.Fprintf(w, "event: summary\ndata: %s\n\n", snap)
	} else {
		fmt.Fprintf(w, "{\"kind\":\"job-summary\",\"job\":%s}\n", snap)
	}
	flush()
}

// writeSSELines writes every complete line of buf as one SSE data frame and
// returns the trailing partial line, moved to the front of buf so the carry
// buffer is reused across chunks.
func writeSSELines(w io.Writer, buf []byte) []byte {
	rest := buf
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		writeSSEData(w, rest[:i])
		rest = rest[i+1:]
	}
	return append(buf[:0], rest...)
}

// writeSSEData writes line as one SSE data frame, skipping blank lines.
func writeSSEData(w io.Writer, line []byte) {
	if line = bytes.TrimSpace(line); len(line) > 0 {
		fmt.Fprintf(w, "data: %s\n\n", line)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
