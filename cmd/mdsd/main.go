// Command mdsd is the long-running solve daemon: an HTTP/JSON service
// accepting Algorithm 1 solve requests (inline graph, edge-list/DIMACS/
// JSON payload, or generator spec) on a bounded job queue, with a
// content-addressed LRU result cache so identical graphs are never
// recomputed, and per-stage pipeline diagnostics in every response.
//
// Usage:
//
//	mdsd [-addr :8377] [-workers W] [-queue Q] [-cache N]
//	     [-timeout D] [-pipeline-workers W]
//	     [-auth-tokens FILE] [-rate R] [-rate-burst B] [-tenant-jobs N]
//	     [-read-timeout D] [-idle-timeout D] [-admin-addr HOST:PORT]
//	     [-log-requests] [-events-buffer N]
//	     [-store-dir DIR] [-store-max-bytes N] [-store-fsync always|none]
//
// With -store-dir, completed results are persisted to a crash-safe
// content-addressed disk store (internal/store) under the in-memory
// cache: a restart on the same directory serves previously computed
// results without recompute, corrupt or truncated entries found at
// startup are quarantined (never served), and any store I/O failure at
// runtime degrades the daemon to memory-only caching — reported on
// /healthz, /metrics (mdsd_store_degraded), and /v1/events — without
// failing requests.
//
// Endpoints: POST /v1/solve, POST /v1/batch, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/trace (span tree, ?format=chrome for Perfetto),
// GET /v1/events (SSE job-lifecycle stream, ring-buffered for late
// subscribers, ?after=seq to resume), GET /healthz, GET /metrics
// (latency histograms and runtime gauges included). With -auth-tokens
// (one "tenant:token" per line) the /v1/* surface requires
// "Authorization: Bearer <token>";
// -rate/-rate-burst and -tenant-jobs bound each tenant with 429 +
// Retry-After. -admin-addr exposes /debug/pprof/* (plus /healthz and
// /metrics) on a separate operator listener. See EXPERIMENTS.md
// ("Serving", "Hardening & saturation") for curl examples.
//
// SIGTERM/SIGINT drain gracefully: new work is shed with 503 while
// accepted jobs finish and stay pollable, then the listener closes and
// the process exits. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"localmds/internal/service"
	"localmds/internal/store"
)

// buildVersion is reported in the mdsd_build_info metric; override at
// build time with -ldflags "-X main.buildVersion=v1.2.3".
var buildVersion = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mdsd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsd", flag.ContinueOnError)
	addr := fs.String("addr", ":8377", "listen address")
	workers := fs.Int("workers", 0, "solver pool size (0: all cores)")
	queue := fs.Int("queue", 64, "max queued jobs beyond the running ones (full queue sheds with 503)")
	cacheEntries := fs.Int("cache", 256, "content-addressed result cache capacity (entries)")
	timeout := fs.Duration("timeout", 0, "per-job solve timeout (0: unbounded)")
	pipelineWorkers := fs.Int("pipeline-workers", 1, "Cuts and ComponentSolve fan-out per job (1: scale across requests, not within one)")
	authTokens := fs.String("auth-tokens", "", "bearer-token file, one tenant:token per line (empty: anonymous tier)")
	rate := fs.Float64("rate", 0, "per-tenant request rate limit in req/s (0: unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-tenant rate-limit burst (0: derived from -rate)")
	tenantJobs := fs.Int("tenant-jobs", 0, "per-tenant in-flight job quota, 429 when exhausted (0: unlimited)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "read deadline for request headers and bodies, slowloris guard (0: none)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline (0: none)")
	adminAddr := fs.String("admin-addr", "", "separate admin listener for /debug/pprof/, /healthz, /metrics (empty: disabled)")
	logRequests := fs.Bool("log-requests", false, "emit one structured JSON log line per request to stderr")
	eventsBuffer := fs.Int("events-buffer", 256, "job-lifecycle events retained for late /v1/events subscribers")
	storeDir := fs.String("store-dir", "", "durable result-store directory; restarts on the same directory serve persisted results without recompute (empty: memory-only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "on-disk result-store byte budget, LRU-evicted (0: unlimited; requires -store-dir)")
	storeFsync := fs.String("store-fsync", "always", "result-store durability: always (fsync before a result is acknowledged) or none (atomic but may lose recent results on crash)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *workers < 0 || *queue < 1 || *cacheEntries < 1 || *pipelineWorkers < 0 {
		return fmt.Errorf("-workers and -pipeline-workers must be >= 0, -queue and -cache >= 1")
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	}
	if *readTimeout < 0 || *idleTimeout < 0 {
		return fmt.Errorf("-read-timeout and -idle-timeout must be >= 0, got %v and %v", *readTimeout, *idleTimeout)
	}
	if *rate < 0 || *rateBurst < 0 || *tenantJobs < 0 {
		return fmt.Errorf("-rate, -rate-burst, and -tenant-jobs must be >= 0")
	}
	if *eventsBuffer < 1 {
		return fmt.Errorf("-events-buffer must be >= 1, got %d", *eventsBuffer)
	}
	if *storeMaxBytes < 0 {
		return fmt.Errorf("-store-max-bytes must be >= 0, got %d", *storeMaxBytes)
	}
	if *storeMaxBytes > 0 && *storeDir == "" {
		return fmt.Errorf("-store-max-bytes requires -store-dir")
	}
	fsyncPolicy, err := store.ParseFsyncPolicy(*storeFsync)
	if err != nil {
		return fmt.Errorf("-store-fsync: %w", err)
	}

	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		JobTimeout:       *timeout,
		PipelineWorkers:  *pipelineWorkers,
		RatePerSec:       *rate,
		RateBurst:        *rateBurst,
		MaxJobsPerTenant: *tenantJobs,
		EventBuffer:      *eventsBuffer,
		Version:          buildVersion,
	}
	if *authTokens != "" {
		tokens, err := service.LoadTokens(*authTokens)
		if err != nil {
			return fmt.Errorf("-auth-tokens: %w", err)
		}
		cfg.Tokens = tokens
	}
	if *logRequests {
		cfg.AccessLog = os.Stderr
	}
	if *storeDir != "" {
		// Open fails fast on an uncreatable or unwritable directory (it
		// opens its segments for writing) and quarantines any invalid
		// records it finds, so the daemon never boots half-durable by
		// accident.
		st, err := store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMaxBytes, Fsync: fsyncPolicy})
		if err != nil {
			return fmt.Errorf("-store-dir: %w", err)
		}
		// Closed on every return: after the drain, no job writes to it.
		defer st.Close()
		cfg.Store = st
		stats := st.Stats()
		fmt.Fprintf(stdout, "mdsd: result store %s: %d entries (%d bytes), %d quarantined, fsync=%s\n",
			*storeDir, stats.Entries, stats.Bytes, stats.Quarantined, fsyncPolicy)
	}
	svc := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout defeats slowloris clients that trickle header
	// bytes; ReadTimeout additionally bounds body upload time and
	// IdleTimeout reclaims idle keep-alive connections. All three were
	// previously zero, i.e. a single hostile connection could be held
	// open forever.
	headerTimeout := 10 * time.Second
	if *readTimeout > 0 && *readTimeout < headerTimeout {
		headerTimeout = *readTimeout
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       *idleTimeout,
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("-admin-addr: %w", err)
		}
		adminSrv = &http.Server{
			Handler:           svc.AdminHandler(),
			ReadHeaderTimeout: headerTimeout,
			IdleTimeout:       *idleTimeout,
		}
		//mdsvet:ignore boundedgo -- one accept-loop goroutine per process lifetime for the admin listener, not request-scoped
		go func() { _ = adminSrv.Serve(adminLn) }()
		fmt.Fprintf(stdout, "mdsd: admin on %s\n", adminLn.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	//mdsvet:ignore boundedgo -- one accept-loop goroutine per process lifetime; request concurrency is bounded inside the service by runner.Pool
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "mdsd: listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain, listener-last: new submissions shed with 503 while
	// accepted jobs finish, and /v1/jobs/{id} keeps answering until every
	// job is terminal; only then does the listener close. A second signal
	// (stop() restored default handling) kills the process the usual way.
	stop()
	fmt.Fprintf(stdout, "mdsd: draining (signal received)\n")
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if adminSrv != nil {
		_ = adminSrv.Shutdown(shutdownCtx)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		svc.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintf(stdout, "mdsd: drained, bye\n")
	return nil
}
