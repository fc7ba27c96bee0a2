package service

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"localmds/internal/obs"
)

// This file is the service-side face of internal/obs: histogram and event
// fabric construction, the route/outcome labeling that keeps histogram
// cardinality bounded, and the rendering of the observability families
// into /metrics (renderMetrics in metrics.go calls renderObsMetrics).

// initObs wires the observability core into a freshly constructed Server.
func (s *Server) initObs() {
	s.bus = obs.NewBus(s.cfg.EventBuffer, nil)
	s.reqLatency = obs.NewHistogramVec(
		"mdsd_request_duration_seconds",
		"HTTP request latency by route and outcome class.",
		[]string{"route", "outcome"}, nil)
	s.queueWait = obs.NewHistogram(nil)
	s.solveWall = obs.NewHistogram(nil)
	s.stageDur = obs.NewHistogramVec(
		"mdsd_stage_duration_seconds",
		"Per-solve pipeline stage wall time.",
		[]string{"stage"}, nil)
}

// routeLabel collapses a request path to its route pattern so histogram
// label cardinality is bounded by the API surface, not by client input.
func routeLabel(path string) string {
	switch path {
	case "/v1/solve", "/v1/batch", "/v1/events", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		if strings.HasSuffix(path, "/trace") {
			return "/v1/jobs/{id}/trace"
		}
		return "/v1/jobs/{id}"
	}
	return "other"
}

// outcomeLabel collapses a status code to its class ("2xx".."5xx").
func outcomeLabel(status int) string {
	if status < 100 || status > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", status/100)
}

// observeRequest records one finished request into the latency histogram.
func (s *Server) observeRequest(path string, status int, dur time.Duration) {
	s.reqLatency.With(routeLabel(path), outcomeLabel(status)).ObserveDuration(dur)
}

// renderObsMetrics appends the observability families to the /metrics
// exposition: build info, runtime and pool gauges, then the latency
// histograms in canonical _bucket/_sum/_count order.
func (s *Server) renderObsMetrics(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP mdsd_build_info Constant 1, labeled with the build version and Go runtime.\n")
	fmt.Fprintf(b, "# TYPE mdsd_build_info gauge\n")
	fmt.Fprintf(b, "mdsd_build_info{version=%q,go=%q} 1\n", s.cfg.Version, runtime.Version())

	snap := obs.SampleRuntime()
	fmt.Fprintf(b, "# HELP mdsd_goroutines Live goroutines at scrape time.\n")
	fmt.Fprintf(b, "# TYPE mdsd_goroutines gauge\n")
	fmt.Fprintf(b, "mdsd_goroutines %d\n", snap.Goroutines)
	fmt.Fprintf(b, "# HELP mdsd_heap_bytes Live heap object bytes at scrape time.\n")
	fmt.Fprintf(b, "# TYPE mdsd_heap_bytes gauge\n")
	fmt.Fprintf(b, "mdsd_heap_bytes %d\n", snap.HeapBytes)
	fmt.Fprintf(b, "# HELP mdsd_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(b, "# TYPE mdsd_gc_pause_seconds_total counter\n")
	fmt.Fprintf(b, "mdsd_gc_pause_seconds_total %.9f\n", snap.GCPauseTotal.Seconds())
	fmt.Fprintf(b, "# HELP mdsd_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(b, "# TYPE mdsd_gc_cycles_total counter\n")
	fmt.Fprintf(b, "mdsd_gc_cycles_total %d\n", snap.GCCycles)

	workers := s.pool.Workers()
	busy := s.busyWorkers.Load()
	fmt.Fprintf(b, "# HELP mdsd_workers Solver pool size.\n")
	fmt.Fprintf(b, "# TYPE mdsd_workers gauge\n")
	fmt.Fprintf(b, "mdsd_workers %d\n", workers)
	fmt.Fprintf(b, "# HELP mdsd_workers_busy Pool workers currently running a job.\n")
	fmt.Fprintf(b, "# TYPE mdsd_workers_busy gauge\n")
	fmt.Fprintf(b, "mdsd_workers_busy %d\n", busy)
	util := 0.0
	if workers > 0 {
		util = float64(busy) / float64(workers)
	}
	fmt.Fprintf(b, "# HELP mdsd_worker_utilization Busy fraction of the solver pool (0..1).\n")
	fmt.Fprintf(b, "# TYPE mdsd_worker_utilization gauge\n")
	fmt.Fprintf(b, "mdsd_worker_utilization %.6f\n", util)

	fmt.Fprintf(b, "# HELP mdsd_events_total Job-lifecycle events published on /v1/events.\n")
	fmt.Fprintf(b, "# TYPE mdsd_events_total counter\n")
	fmt.Fprintf(b, "mdsd_events_total %d\n", s.bus.LastSeq())

	s.reqLatency.Render(b)
	s.queueWait.Render(b, "mdsd_queue_wait_seconds", "Time jobs spend queued before a worker picks them up.")
	s.solveWall.Render(b, "mdsd_solve_wall_seconds", "Wall time of computed (non-cached) solves.")
	s.stageDur.Render(b)
}
