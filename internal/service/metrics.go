package service

import (
	"fmt"
	"sort"
	"strings"
)

// renderMetrics emits the Prometheus text exposition of the server's
// counters: queue depth, job tallies, cache effectiveness and computed
// solves; renderObsMetrics adds the latency histograms, per-stage wall
// time among them.
func (s *Server) renderMetrics() string {
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP mdsd_queue_depth Jobs accepted but not yet finished (queued + running).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_queue_depth gauge\n")
	fmt.Fprintf(&b, "mdsd_queue_depth %d\n", s.pool.Pending())

	fmt.Fprintf(&b, "# HELP mdsd_jobs_total Finished jobs by terminal status.\n")
	fmt.Fprintf(&b, "# TYPE mdsd_jobs_total counter\n")
	counts := s.jobs.terminalCounts()
	statuses := make([]string, 0, len(counts))
	for status := range counts {
		statuses = append(statuses, status)
	}
	sort.Strings(statuses)
	for _, status := range statuses {
		fmt.Fprintf(&b, "mdsd_jobs_total{status=%q} %d\n", status, counts[status])
	}

	evictions, entries := s.cache.stats()
	fmt.Fprintf(&b, "# HELP mdsd_cache_hits_total Content-addressed result cache hits.\n")
	fmt.Fprintf(&b, "# TYPE mdsd_cache_hits_total counter\n")
	fmt.Fprintf(&b, "mdsd_cache_hits_total %d\n", s.cacheHits.Load())
	fmt.Fprintf(&b, "# HELP mdsd_request_memo_hits_total Cache hits found from the request body's digest, without decoding or parsing it (counted in mdsd_cache_hits_total too).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_request_memo_hits_total counter\n")
	fmt.Fprintf(&b, "mdsd_request_memo_hits_total %d\n", s.memoHits.Load())
	fmt.Fprintf(&b, "# HELP mdsd_cache_misses_total Lookups that missed and started a new job (in-flight joins excluded; the job may still be shed or time out — recomputes are mdsd_computations_total).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_cache_misses_total counter\n")
	fmt.Fprintf(&b, "mdsd_cache_misses_total %d\n", s.cacheMisses.Load())
	fmt.Fprintf(&b, "# HELP mdsd_inflight_dedup_total Requests deduplicated onto an identical in-flight job.\n")
	fmt.Fprintf(&b, "# TYPE mdsd_inflight_dedup_total counter\n")
	fmt.Fprintf(&b, "mdsd_inflight_dedup_total %d\n", s.cacheDedups.Load())
	fmt.Fprintf(&b, "# TYPE mdsd_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "mdsd_cache_evictions_total %d\n", evictions)
	fmt.Fprintf(&b, "# TYPE mdsd_cache_entries gauge\n")
	fmt.Fprintf(&b, "mdsd_cache_entries %d\n", entries)

	if s.store != nil {
		degraded := 0
		if s.storeDegraded.Load() {
			degraded = 1
		}
		st := s.store.Stats()
		fmt.Fprintf(&b, "# HELP mdsd_store_degraded Whether the result store failed and the daemon fell back to memory-only caching.\n")
		fmt.Fprintf(&b, "# TYPE mdsd_store_degraded gauge\n")
		fmt.Fprintf(&b, "mdsd_store_degraded %d\n", degraded)
		fmt.Fprintf(&b, "# HELP mdsd_store_entries Validated entries the disk store is serving.\n")
		fmt.Fprintf(&b, "# TYPE mdsd_store_entries gauge\n")
		fmt.Fprintf(&b, "mdsd_store_entries %d\n", st.Entries)
		fmt.Fprintf(&b, "# TYPE mdsd_store_bytes gauge\n")
		fmt.Fprintf(&b, "mdsd_store_bytes %d\n", st.Bytes)
		fmt.Fprintf(&b, "# HELP mdsd_store_hits_total Disk-store lookups that served a validated entry.\n")
		fmt.Fprintf(&b, "# TYPE mdsd_store_hits_total counter\n")
		fmt.Fprintf(&b, "mdsd_store_hits_total %d\n", st.Hits)
		fmt.Fprintf(&b, "# TYPE mdsd_store_misses_total counter\n")
		fmt.Fprintf(&b, "mdsd_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(&b, "# HELP mdsd_store_quarantined_total Entries moved aside as truncated, corrupt, or alien — at startup scan or Get-time validation — and never served.\n")
		fmt.Fprintf(&b, "# TYPE mdsd_store_quarantined_total counter\n")
		fmt.Fprintf(&b, "mdsd_store_quarantined_total %d\n", st.Quarantined)
		fmt.Fprintf(&b, "# TYPE mdsd_store_evictions_total counter\n")
		fmt.Fprintf(&b, "mdsd_store_evictions_total %d\n", st.Evictions)
	}

	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&b, "# HELP mdsd_draining Whether the daemon is draining (shedding new work with 503).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_draining gauge\n")
	fmt.Fprintf(&b, "mdsd_draining %d\n", draining)

	fmt.Fprintf(&b, "# HELP mdsd_auth_failures_total Requests rejected with 401 (missing or unknown bearer token).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_auth_failures_total counter\n")
	fmt.Fprintf(&b, "mdsd_auth_failures_total %d\n", s.authFailures.Load())

	tenants := s.tenantSnapshot()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	fmt.Fprintf(&b, "# HELP mdsd_tenant_requests_total Per-tenant request outcomes at the middleware and submission gates.\n")
	fmt.Fprintf(&b, "# TYPE mdsd_tenant_requests_total counter\n")
	for _, tn := range tenants {
		for _, oc := range []struct {
			name  string
			value int64
		}{
			{"accepted", tn.accepted.Load()},
			{"rate_limited", tn.rateLimited.Load()},
			{"quota_rejected", tn.quotaRejected.Load()},
			{"shed", tn.shed.Load()},
		} {
			fmt.Fprintf(&b, "mdsd_tenant_requests_total{tenant=%q,outcome=%q} %d\n", tn.name, oc.name, oc.value)
		}
	}
	fmt.Fprintf(&b, "# HELP mdsd_tenant_jobs_inflight Per-tenant queued+running jobs held against the quota.\n")
	fmt.Fprintf(&b, "# TYPE mdsd_tenant_jobs_inflight gauge\n")
	for _, tn := range tenants {
		fmt.Fprintf(&b, "mdsd_tenant_jobs_inflight{tenant=%q} %d\n", tn.name, tn.jobs.Load())
	}

	fmt.Fprintf(&b, "# HELP mdsd_computations_total Pipeline executions (cache hits excluded).\n")
	fmt.Fprintf(&b, "# TYPE mdsd_computations_total counter\n")
	fmt.Fprintf(&b, "mdsd_computations_total %d\n", s.computations.Load())

	s.renderObsMetrics(&b)
	return b.String()
}
