package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"localmds/internal/runner"
)

// maxBodyBytes bounds request bodies (graph payloads included).
const maxBodyBytes = 64 << 20

// maxBatchSize bounds one /v1/batch submission; it must stay well below
// the jobStore retention floor so freshly returned job IDs cannot have
// been evicted already.
const maxBatchSize = 256

// handleSolve is POST /v1/solve: parse, enqueue (or hit the cache /
// join an identical in-flight job), wait, respond with the full result.
// The bounded body is read whole and digested first: a body that parsed
// earlier to a solve still in the memory tier is answered from the
// digest, and only the others are decoded and parsed.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, readErr := readBody(w, r)
	tn := tenantFrom(r.Context())
	var digest bodyDigest
	var j *Job
	var rej submitRejection
	if readErr == nil {
		digest = sha256.Sum256(body)
		j, rej = s.submitBody(digest, tn)
	}
	var ps *parsedSolve
	if j == nil {
		var req SolveRequest
		if err := decodeSolve(body, readErr, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode request: " + err.Error()})
			return
		}
		var err error
		if ps, err = parseSolve(&req); err != nil {
			status := http.StatusInternalServerError
			var bad *badRequestError
			if errors.As(err, &bad) {
				status = http.StatusBadRequest
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		j, rej = s.submit(ps, tn)
	}
	switch rej {
	case rejectShed:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: j.view().Error})
		return
	case rejectQuota:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: j.view().Error})
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client gave up; the job keeps running and remains pollable.
		writeJSON(w, http.StatusRequestTimeout, j.view())
		return
	}
	v := j.view()
	switch {
	case v.Status == StatusDone:
		if ps != nil && readErr == nil {
			// The key is in the memory tier now: this body may skip the
			// parse next time.
			s.cache.addBody(digest, bodyAlias{key: ps.key, source: ps.source})
		}
		writeJSON(w, http.StatusOK, v)
	case errors.Is(jobErr(j), runner.ErrTimeout):
		writeJSON(w, http.StatusGatewayTimeout, v)
	case errors.Is(jobErr(j), errTenantQuota):
		// A deduplicated follower joined a job whose leader was then
		// quota-rejected: same deterministic 429 as the leader.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, v)
	case errors.Is(jobErr(j), errQueueFull), errors.Is(jobErr(j), errDraining):
		// Deduplicated followers of a shed leader land here: load
		// shedding is 503 for every waiter, not a server fault.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, v)
	default:
		writeJSON(w, http.StatusInternalServerError, v)
	}
}

// maxBodyPresize caps the buffer readBody sizes from a declared
// Content-Length, so a client cannot reserve more memory than it sends.
const maxBodyPresize = 1 << 20

// readBody reads the request body whole, up to maxBodyBytes. A body of
// declared length up to maxBodyPresize is read into one buffer of that
// size rather than a growing one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n >= 0 && n <= maxBodyPresize {
		buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
		_, err := buf.ReadFrom(src)
		return buf.Bytes(), err
	}
	return io.ReadAll(src)
}

// decodeSolve decodes a request body as a json.Decoder reading the
// request would: the first JSON value, ignoring any data after it, with a
// failed read (an over-cap body) as the error once the bytes before it
// run out. A body that is a single JSON value is unmarshalled in place,
// without the decoder's copy of it.
func decodeSolve(body []byte, readErr error, req *SolveRequest) error {
	if readErr == nil && json.Unmarshal(body, req) == nil {
		return nil
	}
	*req = SolveRequest{}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, failedRead{readErr})
	}
	return json.NewDecoder(src).Decode(req)
}

// failedRead returns a body read's error after the bytes read before it.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// jobErr reads the job's terminal error.
func jobErr(j *Job) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchEntry reports one enqueued batch element.
type BatchEntry struct {
	JobID  string `json:"job_id,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// handleBatch is POST /v1/batch: enqueue every element, return job IDs
// immediately; clients poll GET /v1/jobs/{id}. Malformed elements and
// queue-full rejections fail individually without failing the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode request: " + err.Error()})
		return
	}
	if len(req.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if len(req.Requests) > maxBatchSize {
		// The cap (far below the job-retention floor) guarantees every
		// job ID in the response is still resolvable via /v1/jobs/{id}
		// once the client reads it.
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("batch of %d exceeds the maximum of %d requests", len(req.Requests), maxBatchSize)})
		return
	}
	entries := make([]BatchEntry, len(req.Requests))
	tn := tenantFrom(r.Context())
	for i := range req.Requests {
		ps, err := parseSolve(&req.Requests[i])
		if err != nil {
			entries[i] = BatchEntry{Status: StatusFailed, Error: err.Error()}
			continue
		}
		// Shed/quota-rejected jobs come back already failed; the entry
		// carries the rejection so the batch itself still succeeds.
		j, _ := s.submit(ps, tn)
		v := j.view()
		entries[i] = BatchEntry{JobID: j.ID, Status: v.Status, Error: v.Error}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": entries})
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's span tree. The
// default JSON form nests children under the root "job" span;
// ?format=chrome renders Chrome trace-event JSON for chrome://tracing and
// Perfetto. Jobs that never computed (cache hits, shed submissions) have
// no trace and answer 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	tr, _ := j.Trace()
	if tr == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "job " + id + " has no trace (served from cache or rejected before running)"})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, tr.View())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteChromeTrace(w)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "format: want json or chrome, got " + format})
	}
}

// handleHealthz is GET /healthz. It stays unauthenticated and unlimited
// so load-balancer probes keep working whatever the tenant config, and
// reports "draining" once shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, entries := s.cache.stats()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        status,
		"uptime_s":      time.Since(s.started).Seconds(),
		"queue_depth":   s.pool.Pending(),
		"workers":       s.pool.Workers(),
		"cache_entries": entries,
		"cache_hits":    s.cacheHits.Load(),
		"cache_misses":  s.cacheMisses.Load(),
		"store":         s.storeStatus(),
	})
}

// handleMetrics is GET /metrics (Prometheus text exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.renderMetrics()))
}
