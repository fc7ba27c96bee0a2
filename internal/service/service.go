// Package service is the long-running solve layer over the repository's
// library internals: an HTTP/JSON daemon (cmd/mdsd) that accepts solve
// requests — an inline graph, a text payload in any graphio format, or a
// generator spec, plus Algorithm 1 params — runs them on a bounded job
// queue built from the internal/runner worker-pool machinery, and serves
// results with the per-stage diagnostics of the staged CSR pipeline.
//
// Identical work is never recomputed: every request is content-addressed
// by graph.Fingerprint over its frozen CSR plus the normalized params, an
// LRU cache serves repeats, and concurrent identical requests are
// deduplicated onto one in-flight job.
//
// Untrusted clients are bounded the same way untrusted graphs are: a
// middleware chain (middleware.go) authenticates bearer tokens into
// tenants, rate-limits and quota-bounds each tenant, tags every request
// with an ID, and logs structured access records, while the submission
// path sheds with deterministic statuses — 401 auth, 429 rate/quota with
// Retry-After, 503 queue-full or draining with Retry-After, 504 timeout.
//
// Endpoints:
//
//	POST /v1/solve    — synchronous solve (enqueue + wait)
//	POST /v1/batch    — enqueue many, return job IDs immediately
//	GET  /v1/jobs/{id} — job status: queued/running/done with stage table
//	GET  /healthz     — liveness + queue snapshot (never authenticated)
//	GET  /metrics     — Prometheus text: queue depth, cache hit/miss,
//	                    per-stage latency totals, per-tenant outcomes
//
// AdminHandler serves /debug/pprof/* for a separate operator listener.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"localmds/internal/core"
	"localmds/internal/mds"
	"localmds/internal/obs"
	"localmds/internal/runner"
	"localmds/internal/store"
)

const (
	// jobRetention caps remembered finished jobs.
	jobRetention = 1024
	// traceMaxSpans caps retained spans per job trace (huge instances can
	// produce one span per residual component). Spans over the cap are
	// counted, not stored.
	traceMaxSpans = 4096
)

// Config tunes the daemon.
type Config struct {
	// Workers bounds the solver pool; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting beyond the running ones; when the
	// queue is full, solves are shed with HTTP 503 and batch entries fail.
	// <= 0 selects 64.
	QueueDepth int
	// CacheEntries caps the content-addressed result cache; <= 0 selects
	// 256.
	CacheEntries int
	// JobTimeout bounds each solve (0 = unbounded); a job that exceeds it
	// fails with HTTP 504 semantics instead of stalling the queue.
	JobTimeout time.Duration
	// PipelineWorkers bounds each solve's Cuts and ComponentSolve fan-out
	// (core.PipelineOptions.Workers); the
	// default 1 keeps one request on one core so concurrent requests
	// scale by request, not within one.
	PipelineWorkers int
	// Tokens maps tenant names to bearer tokens (see LoadTokens). When
	// empty, every request runs as the anonymous tenant; when set, /v1/*
	// requires "Authorization: Bearer <token>" and unknown tokens are 401.
	Tokens map[string]string
	// RatePerSec is the per-tenant token-bucket refill rate; <= 0 disables
	// rate limiting. Exhaustion is 429 with Retry-After.
	RatePerSec float64
	// RateBurst is the bucket capacity; <= 0 derives max(1, ceil(rate)).
	RateBurst int
	// MaxJobsPerTenant caps one tenant's queued+running jobs; <= 0 means
	// unlimited. Exhaustion is 429 with Retry-After, distinct from the
	// whole-daemon 503 load shed.
	MaxJobsPerTenant int
	// AccessLog receives one structured (JSON) log line per request when
	// non-nil; requests are tagged with X-Request-Id either way.
	AccessLog io.Writer
	// EventBuffer caps the /v1/events ring buffer replayed to late
	// subscribers; <= 0 selects 256.
	EventBuffer int
	// Version is reported in the mdsd_build_info metric; empty selects
	// "dev".
	Version string
	// Store is the optional disk tier under the memory result cache
	// (internal/store): completed solves are persisted before their jobs
	// finish and a restart on the same directory serves them without
	// recompute. nil disables persistence. The Server takes ownership; any
	// real I/O error degrades the daemon to memory-only for its lifetime
	// (store.go) rather than failing requests.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.PipelineWorkers <= 0 {
		c.PipelineWorkers = 1
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server is the solve service. Create with New, expose via Handler, stop
// with Drain (graceful) or Close (abort).
type Server struct {
	cfg      Config
	pool     *runner.Pool
	cache    *resultCache
	jobs     *jobStore
	started  time.Time
	baseCtx  context.Context
	cancel   context.CancelFunc
	inflight *inflightMap

	// Disk tier (store.go): nil when persistence is disabled; the degraded
	// flag is one-way — a real I/O error flips the daemon to memory-only.
	store         *store.Store
	storeDegraded atomic.Bool

	// Hardening state: hashed credentials, per-tenant accounting, the
	// drain gate, and observability plumbing (middleware.go).
	tokenHashes  []tokenEntry
	tenantsMu    sync.Mutex
	tenants      map[string]*tenantState
	draining     atomic.Bool
	authFailures atomic.Int64
	reqSeq       atomic.Uint64
	logger       *slog.Logger

	// Cache effectiveness counters. They live here rather than in
	// resultCache because only the request router can classify a lookup:
	// a hit serves the stored result, a miss becomes the leader of a
	// recompute, and a dedup joins an identical in-flight job (neither
	// hit nor recompute).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheDedups atomic.Int64
	// memoHits counts the cache hits found from the request body's digest
	// (submitBody), without decoding or parsing it.
	memoHits atomic.Int64
	// computations counts pipeline executions that finished without error
	// (Computations, mdsd_computations_total).
	computations atomic.Int64

	// Observability core (obs.go): the job-lifecycle event bus behind
	// /v1/events, latency histograms rendered into /metrics, and the
	// busy-worker gauge.
	bus         *obs.Bus
	reqLatency  *obs.HistogramVec // route × outcome class
	queueWait   *obs.Histogram
	solveWall   *obs.Histogram
	stageDur    *obs.HistogramVec // pipeline stage
	busyWorkers atomic.Int64

	// solve runs one pipeline execution; tests stub it to exercise queue
	// shedding, timeouts, and drain deterministically. hooks (nil when the
	// job's trace was dropped) receives stage/component span callbacks.
	solve func(ps *parsedSolve, hooks core.TraceHooks) (*core.Alg1Result, error)
}

// errQueueFull marks load-shed jobs so every waiter — the leader and any
// deduplicated followers — maps the failure to HTTP 503.
var errQueueFull = errors.New("queue full")

// errDraining marks jobs rejected after drain started: still HTTP 503,
// but the message tells clients the daemon is going away, not overloaded.
var errDraining = errors.New("draining: not accepting new work")

// errTenantQuota marks jobs rejected by a per-tenant job quota — HTTP 429
// with Retry-After, distinct from whole-daemon load shedding.
var errTenantQuota = errors.New("tenant job quota exhausted")

// New starts a Server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		pool:     runner.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheEntries),
		jobs:     newJobStore(jobRetention),
		started:  time.Now(),
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: newInflightMap(),
		tenants:  map[string]*tenantState{},
		store:    cfg.Store,
	}
	for name, token := range cfg.Tokens {
		s.tokenHashes = append(s.tokenHashes, tokenEntry{name: name, sum: sha256.Sum256([]byte(token))})
	}
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	s.initObs()
	s.solve = func(ps *parsedSolve, hooks core.TraceHooks) (*core.Alg1Result, error) {
		return core.Alg1CSR(ps.csr, ps.params, core.PipelineOptions{Workers: s.cfg.PipelineWorkers, Hooks: hooks})
	}
	return s
}

// BeginDrain flips the server into draining mode: every new submission
// is shed with 503 while accepted jobs keep running and /v1/jobs/{id}
// keeps answering. It does not block; Drain does.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain stops accepting work and blocks until every accepted job has
// finished — the SIGTERM path. The HTTP listener may stay up throughout:
// new submissions shed deterministically with 503 and finished jobs stay
// pollable until the caller shuts the listener down.
func (s *Server) Drain() {
	s.BeginDrain()
	s.pool.Close()
	// Every accepted job is terminal now, so subscribers have every
	// terminal event buffered before their streams close.
	s.bus.Close()
}

// Close aborts in-flight jobs via context cancellation, then drains.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancel()
	s.pool.Close()
	s.bus.Close()
}

// Computations returns the number of pipeline executions the server has
// performed; cache hits and deduplicated waiters do not advance it.
// Tests assert on it to prove a cache hit skips recompute.
func (s *Server) Computations() int64 { return s.computations.Load() }

// submitRejection classifies why submit refused a solve, so handlers map
// it to the right deterministic status code.
type submitRejection int

const (
	rejectNone  submitRejection = iota
	rejectShed                  // queue full or draining → 503 + Retry-After
	rejectQuota                 // per-tenant job quota → 429 + Retry-After
)

// submit routes one parsed solve: cache hit → immediately-done job;
// identical in-flight request → join its job; otherwise a fresh job on
// the queue, counted against the tenant's quota until it terminates.
// tn may be nil (no quota accounting, e.g. internal callers).
func (s *Server) submit(ps *parsedSolve, tn *tenantState) (*Job, submitRejection) {
	if j, rej, ok := s.submitKnown(ps, tn); ok {
		return j, rej
	}
	tenant := tenantName(tn)
	// Deduplicate concurrent identical requests onto one in-flight job.
	j, leader := s.inflight.join(ps.key, func() *Job { return s.jobs.create(ps.source, false) })
	if !leader {
		s.cacheDedups.Add(1)
		return j, rejectNone
	}
	s.cacheMisses.Add(1)
	if tn != nil && !tn.tryAcquireJob() {
		s.inflight.leave(ps.key)
		err := fmt.Errorf("%w: tenant %q already has %d jobs in flight", errTenantQuota, tn.name, tn.maxJobs)
		j.finish(nil, err)
		s.jobs.recordTerminal(StatusFailed)
		tn.quotaRejected.Add(1)
		s.publishShed(j, tenant, ps, err)
		return j, rejectQuota
	}
	// The job's span tree is rooted at its deterministic ID, so two runs
	// of the same request sequence trace identically.
	tr, root := obs.NewTrace(j.ID, "job", obs.TraceOptions{MaxSpans: traceMaxSpans})
	root.SetStart(jobCreated(j))
	root.SetAttr("source", ps.source)
	root.SetAttr("fingerprint", ps.key.fp.String())
	j.setTrace(tr, root)
	s.bus.Publish(obs.Event{
		Type: obs.EventSubmitted, JobID: j.ID, Tenant: tenant, Source: ps.source,
		Fingerprint: ps.key.fp.String(),
	})
	accepted := s.pool.TrySubmit(func() {
		defer s.inflight.leave(ps.key)
		if tn != nil {
			defer tn.releaseJob()
		}
		s.runJob(j, ps, tenant)
	})
	if !accepted {
		s.inflight.leave(ps.key)
		if tn != nil {
			tn.releaseJob()
			tn.shed.Add(1)
		}
		err := fmt.Errorf("%w (%d jobs pending)", errQueueFull, s.pool.Pending())
		j.finish(nil, err)
		s.jobs.recordTerminal(StatusFailed)
		s.publishShed(j, tenant, ps, err)
		return j, rejectShed
	}
	return j, rejectNone
}

// submitKnown is the part of submit that needs only the solve's key and
// source, not its graph: the draining gate, then a hit in either cache
// tier. ok is false when the solve has to be computed.
func (s *Server) submitKnown(ps *parsedSolve, tn *tenantState) (j *Job, rej submitRejection, ok bool) {
	tenant := tenantName(tn)
	if s.draining.Load() {
		j := s.jobs.create(ps.source, false)
		j.finish(nil, errDraining)
		s.jobs.recordTerminal(StatusFailed)
		if tn != nil {
			tn.shed.Add(1)
		}
		s.publishShed(j, tenant, ps, errDraining)
		return j, rejectShed, true
	}
	out, age, ok := s.cache.get(ps.key)
	if !ok {
		// Memory miss: the disk tier may still have the result — from this
		// process or a previous one on the same -store-dir. A disk hit
		// warms the memory cache and reports the persisted age.
		out, age, ok = s.storeLookup(ps)
	}
	if !ok {
		return nil, rejectNone, false
	}
	s.cacheHits.Add(1)
	j = s.jobs.create(ps.source, true)
	j.setCacheAge(age)
	j.finish(out, nil)
	s.jobs.recordTerminal(StatusDone)
	s.bus.Publish(obs.Event{
		Type: obs.EventCached, JobID: j.ID, Tenant: tenant, Source: ps.source,
		Fingerprint: ps.key.fp.String(), CacheAgeS: age.Seconds(),
	})
	return j, rejectNone, true
}

// submitBody answers a request from its body's digest alone, when a body
// with that digest parsed earlier to a solve still in the memory tier:
// the solve goes through submitKnown without being decoded or parsed. j
// is nil when the body has to be parsed.
func (s *Server) submitBody(d bodyDigest, tn *tenantState) (*Job, submitRejection) {
	a, ok := s.cache.lookupBody(d)
	if !ok {
		return nil, rejectNone
	}
	j, rej, ok := s.submitKnown(&parsedSolve{key: a.key, source: a.source}, tn)
	if !ok {
		return nil, rejectNone // evicted since the lookup
	}
	if rej == rejectNone {
		s.memoHits.Add(1)
	}
	return j, rej
}

// jobCreated reads the job's creation instant.
func jobCreated(j *Job) time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created
}

// tenantName renders the event/tenant label for a possibly-nil tenant.
func tenantName(tn *tenantState) string {
	if tn == nil {
		return ""
	}
	return tn.name
}

// publishShed emits the rejection event shared by the draining, quota,
// and queue-full paths.
func (s *Server) publishShed(j *Job, tenant string, ps *parsedSolve, err error) {
	s.bus.Publish(obs.Event{
		Type: obs.EventShed, JobID: j.ID, Tenant: tenant, Source: ps.source,
		Fingerprint: ps.key.fp.String(), Error: err.Error(),
	})
}

// runJob executes one queued solve on a pool worker.
func (s *Server) runJob(j *Job, ps *parsedSolve, tenant string) {
	s.busyWorkers.Add(1)
	defer s.busyWorkers.Add(-1)
	started, queueWait := j.markRunning()
	s.queueWait.Observe(queueWait.Seconds())
	_, root := j.Trace()
	var solveSpan *obs.Span
	if root != nil {
		qs := root.StartChild("queue wait")
		qs.SetStart(jobCreated(j))
		qs.EndAt(started)
		solveSpan = root.StartChild("solve")
	}
	s.bus.Publish(obs.Event{
		Type: obs.EventStarted, JobID: j.ID, Tenant: tenant, Source: ps.source,
		Fingerprint: ps.key.fp.String(), QueueWaitS: queueWait.Seconds(),
	})
	res, err := runner.WithTimeout(s.baseCtx, s.cfg.JobTimeout, func() (*core.Alg1Result, error) {
		return s.solve(ps, core.SpanHooks(solveSpan))
	})
	wall := time.Since(started)
	s.solveWall.Observe(wall.Seconds())
	if solveSpan != nil {
		solveSpan.End()
	}
	if root != nil {
		root.End()
	}
	var out *SolveOutcome
	if err == nil {
		s.computations.Add(1)
		for _, st := range res.StageStats {
			s.stageDur.With(st.Name).ObserveDuration(st.Wall)
		}
		out = &SolveOutcome{
			Fingerprint: ps.key.fp.String(),
			N:           ps.csr.N(),
			M:           ps.csr.M(),
			Params:      ps.params,
			Valid:       mds.IsDominatingSetCSR(ps.csr, res.S),
			Result:      res,
		}
		// Sealing drops res: the cache, the job and the disk tier keep
		// only its encoded bytes.
		err = out.seal()
	}
	if err != nil {
		j.settle(nil, err)
		s.jobs.recordTerminal(StatusFailed)
		s.bus.Publish(obs.Event{
			Type: obs.EventFailed, JobID: j.ID, Tenant: tenant, Source: ps.source,
			Fingerprint: ps.key.fp.String(), SolveWallS: wall.Seconds(), Error: err.Error(),
		})
		close(j.done)
		return
	}
	computedAt := time.Now()
	s.cache.put(ps.key, out, computedAt)
	// Persist before the job finishes: when the store runs fsync=always, a
	// client that saw HTTP 200 can crash us with kill -9 and still find the
	// result on disk after restart.
	s.storePersist(ps, out, computedAt)
	j.settle(out, nil)
	s.jobs.recordTerminal(StatusDone)
	s.bus.Publish(obs.Event{
		Type: obs.EventDone, JobID: j.ID, Tenant: tenant, Source: ps.source,
		Fingerprint: ps.key.fp.String(), SolveWallS: wall.Seconds(),
	})
	close(j.done)
}

// inflightMap deduplicates concurrent identical solves: the first request
// for a key becomes the leader and runs the job, later ones join it.
type inflightMap struct {
	mu   sync.Mutex
	jobs map[solveKey]*Job
}

func newInflightMap() *inflightMap {
	return &inflightMap{jobs: make(map[solveKey]*Job)}
}

// join returns the in-flight job for key, creating one via mk when absent.
// leader reports whether the caller created it (and must submit it).
func (m *inflightMap) join(key solveKey, mk func() *Job) (j *Job, leader bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[key]; ok {
		return j, false
	}
	j = mk()
	m.jobs[key] = j
	return j, true
}

// leave removes key from the in-flight set.
func (m *inflightMap) leave(key solveKey) {
	m.mu.Lock()
	delete(m.jobs, key)
	m.mu.Unlock()
}

// Handler returns the service's HTTP stack: route mux wrapped by the
// client gate (auth + rate limiting on /v1/*) wrapped by the
// observability layer (request IDs + access logging) — podman-style
// middleware ordering, outermost first.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/", s.handleNotFound)
	return s.observe(s.guard(mux))
}

// writeJSON emits one compact JSON response, newline-terminated. A job
// view is written in its spliced form (JobView.writeTo): on a cache hit
// for a 1000-vertex graph that is 5 µs against 84 µs to encode the
// outcome again. JobView is deliberately not a json.Marshaler, because
// encoding/json re-scans a Marshaler's output, which costs more still.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if jv, ok := v.(JobView); ok && jv.writeTo(w) == nil {
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}
