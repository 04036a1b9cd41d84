package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"

	"compaction/internal/obs"
)

// maxSpecBytes bounds a submission body. Specs are small JSON
// documents; anything larger is a mistake or an attack.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs              submit a spec (201, 400, 429)
//	GET    /v1/jobs              list the tenant's jobs
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel (202; idempotent on terminal)
//	GET    /v1/jobs/{id}/events  NDJSON stream (?from=N)
//	GET    /v1/jobs/{id}/result  terminal outcome CSV (409 until then)
//	GET    /v1/jobs/{id}/heatmap  combined heapscope artifact (live
//	                             view while running, frozen bytes once
//	                             terminal; 404 with heatmap off)
//	GET    /v1/jobs/{id}/heapstats  per-cell heap summary statistics
//	GET    /healthz              liveness
//	GET    /                     live dashboard
//	/metrics/prom, /debug/pprof/ obs.Handler over the service registry
//
// Authentication is a bearer token in the Authorization header
// (Authorization: Bearer <token>); the API reads no other credential.
// With no tenants configured the server is open and every caller is
// "public".
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /v1/jobs", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.auth(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.handleStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.auth(s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.auth(s.handleNDJSON))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.auth(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/heatmap", s.auth(s.handleHeatmap))
	mux.HandleFunc("GET /v1/jobs/{id}/heapstats", s.auth(s.handleHeapStats))
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	oh := obs.Handler(s.reg)
	mux.Handle("/metrics/prom", oh)
	mux.Handle("/debug/pprof/", oh)
	return mux
}

// handleHeatmap serves the job's combined heapscope document. While
// the job runs the document is assembled on each request (settled
// cells verbatim, in-flight cells from their live samplers); once the
// job is terminal the frozen bytes are served — identical across
// reads, restarts, and journal resumes.
func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request, t Tenant) {
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	if doc, path := j.heatmapJSON(); !sendBody(w, "application/json", doc, path) {
		httpError(w, http.StatusNotFound, "job %s has heap introspection disabled", j.ID())
	}
}

// handleHeapStats serves per-cell heap summary statistics,
// {"cells":[{...}|null,...]}: a running cell's from its sampler, a
// settled cell's as kept when it settled, including a failed cell's
// last attempt. Cells that never ran in the process that settled them
// (not started, restored from a journal) are null. Once the job is
// terminal the body frozen at settle is served, byte-identical across
// reads and restarts; a job settled by a build that did not persist it
// answers 404, like a job with heap introspection disabled.
func (s *Server) handleHeapStats(w http.ResponseWriter, r *http.Request, t Tenant) {
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	if body, path := j.heapStatsJSON(); !sendBody(w, "application/json", body, path) {
		httpError(w, http.StatusNotFound, "job %s has heap introspection disabled", j.ID())
	}
}

// sendBody answers with a body held in memory or, when path is set,
// the file at path, streamed. It reports false, having written
// nothing, when there is no body: data is nil and path empty, or path
// names no file.
func sendBody(w http.ResponseWriter, contentType string, data []byte, path string) bool {
	if path == "" {
		if data == nil {
			return false
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(data)
		return true
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return true
	}
	defer f.Close()
	w.Header().Set("Content-Type", contentType)
	io.Copy(w, f)
	return true
}

// httpError is the JSON error body of every non-2xx response.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(data, '\n'))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// auth resolves the caller's tenant and rejects unknown tokens.
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.tenantFor(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="compactd"`)
			httpError(w, http.StatusUnauthorized, "missing or unknown bearer token")
			return
		}
		h(w, r, t)
	}
}

func (s *Server) tenantFor(r *http.Request) (Tenant, bool) {
	if len(s.tenants) == 0 {
		return s.public, true
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return Tenant{}, false
	}
	t, ok := s.tenants[tok]
	return t, ok
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, t Tenant) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	sp, err := ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.Submit(t, sp)
	if err != nil {
		var qe quotaError
		if errors.As(err, &qe) {
			// Tell the client when to come back: quota is freed by job
			// completion, so a short fixed backoff is the honest hint.
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request, t Tenant) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.list(t)})
}

func (s *Server) findJob(w http.ResponseWriter, r *http.Request, t Tenant) (*Job, bool) {
	j, ok := s.job(t, r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, t Tenant) {
	if j, ok := s.findJob(w, r, t); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, t Tenant) {
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	if st := j.Status(); st.State.Terminal() {
		writeJSON(w, http.StatusOK, st)
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, t Tenant) {
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; the result exists once it is terminal", j.ID(), st.State)
		return
	}
	if csv, path := j.result(); !sendBody(w, "text/csv; charset=utf-8", csv, path) {
		httpError(w, http.StatusNotFound, "job %s ended %s without a result", j.ID(), st.State)
	}
}

// streamStart parses the resume offset ?from=N, the sequence number
// of the first line to serve.
func streamStart(r *http.Request) (int, error) {
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("from=%q is not a non-negative integer", v)
		}
		return n, nil
	}
	return 0, nil
}

// handleNDJSON streams the job's event log as NDJSON: each retained
// line verbatim, then live lines as they land, until the job ends or
// the client leaves; a terminal job's stream comes from its file in
// the store. The bytes are exactly the log's lines, so two reads of
// the same finished job are byte-identical — the stream golden tests
// depend on it.
func (s *Server) handleNDJSON(w http.ResponseWriter, r *http.Request, t Tenant) {
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	from, err := streamStart(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	j.log.serve(r.Context(), w, flush, from)
}
