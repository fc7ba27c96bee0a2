#!/usr/bin/env bash
# bench_service.sh — run the black-box saturation harness and write
# BENCH_service.json.
#
# The harness (internal/service/blackbox_test.go, TestSaturationBlackbox)
# boots a real daemon per scenario on a loopback socket and drives it
# with a closed-loop load generator: hot-cache throughput, queue
# saturation with 503 shedding, an adversarial mix exercising the
# 400/401/429 rejection paths under auth + quotas, a drain under load,
# a warm restart on a persisted store (zero recomputes), and a SIGKILL
# mid-load with a wounded store log. The emitted JSON records per-scenario
# throughput, p50/p95/p99 latency, and status counts, plus warm-hit
# rate, restart-to-ready latency, quarantine counts, and
# daemon_survived — the perf and degradation snapshot tracked across PRs.
#
# Usage: scripts/bench_service.sh [output.json]
#   MDSD_BENCH_DURATION=500ms|3s|...   per-scenario load window
#                                      (default 2s here; the bare test
#                                      default is 500ms)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_service.json}"
duration="${MDSD_BENCH_DURATION:-2s}"

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

status=0
MDSD_BENCH_OUT="$(pwd)/$out" MDSD_BENCH_DURATION="$duration" \
	go test ./internal/service/ -run '^TestSaturationBlackbox$' -count=1 -v \
	>"$log" 2>&1 || status=$?
grep -E '^(=== RUN|--- (PASS|FAIL)|    --- (PASS|FAIL)|ok|FAIL)' "$log" || cat "$log"

if [[ "$status" -ne 0 ]]; then
	echo "bench_service: harness failed (exit $status)" >&2
	exit "$status"
fi
if [[ ! -s "$out" ]]; then
	echo "bench_service: no report written to $out" >&2
	exit 1
fi
echo "wrote $out"
