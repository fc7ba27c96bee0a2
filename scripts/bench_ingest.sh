#!/usr/bin/env bash
# bench_ingest.sh — benchmark the huge-graph ingestion pipeline and write
# BENCH_ingest.json.
#
# The run generates a near-planar instance (disjoint 12x12 grid
# components) at INGEST_EDGES edges, then measures every stage: text parse
# at 1 worker and at INGEST_WORKERS workers, csrbin mmap load and the
# core.Alg1CSR solve through cmd/mdsingest, and the text→csrbin
# conversion through cmd/graphgen (graphgen -in huge.edges -oformat
# csrbin), the repository's one converter. The JSON records one entry per
# stage (wall time; peak RSS and fingerprint where mdsingest computes
# them; the convert entry has wall time only) plus the two headline
# ratios:
#
#   - load_speedup:  1-worker text parse wall / csrbin mmap load wall
#     (the format's reason to exist — must be >= 50x at full scale)
#   - parse_speedup: 1-worker / INGEST_WORKERS-worker text parse wall,
#     with byte-identical fingerprints
#
# Stages are picked out of the results by mode and worker count.
#
# Usage: scripts/bench_ingest.sh [output.json]
#   INGEST_EDGES=100000000   target edge count (default 10^8; CI uses a
#                            small value as a smoke test)
#   INGEST_WORKERS=4         parallel parse / solve worker count
#   INGEST_SOLVE=1           set to 0 to skip the solve stage (CI smoke
#                            keeps it on; it is cheap at smoke scale)
#   INGEST_R1/INGEST_R2      solve radii (default 4/4, core.PracticalParams;
#                            at R1 = 1 every vertex is a cut vertex and the
#                            solve returns V, which shows nothing)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_ingest.json}"
edges="${INGEST_EDGES:-100000000}"
workers="${INGEST_WORKERS:-4}"
solve="${INGEST_SOLVE:-1}"
r1="${INGEST_R1:-4}"
r2="${INGEST_R2:-4}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
edgefile="$work/huge.edges"
binfile="$work/huge.csrbin"
results="$work/results.jsonl"

go build -o "$work/mdsingest" ./cmd/mdsingest
go build -o "$work/graphgen" ./cmd/graphgen

run_stage() {
	echo ">> $*" >&2
	"$work/mdsingest" "$@" | tee -a "$results"
}

run_stage -mode gen -edges "$edges" -o "$edgefile"
run_stage -mode parse -in "$edgefile" -workers 1 -fingerprint
run_stage -mode parse -in "$edgefile" -workers "$workers" -fingerprint
echo ">> graphgen -in $edgefile -oformat csrbin -o $binfile" >&2
start="$(date +%s.%N)"
GOMAXPROCS="$workers" "$work/graphgen" -in "$edgefile" -oformat csrbin -o "$binfile"
jq -cn --argjson s "$start" --argjson e "$(date +%s.%N)" --argjson w "$workers" \
	'{mode: "convert", workers: $w, wall_seconds: ($e - $s)}' | tee -a "$results"
run_stage -mode load -in "$binfile" -fingerprint
if [ "$solve" != "0" ]; then
	run_stage -mode solve -in "$binfile" -workers "$workers" -r1 "$r1" -r2 "$r2"
fi

jq -s --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --argjson edges "$edges" --argjson workers "$workers" '
def stage(m): map(select(.mode == m)) | first;
def stage(m; w): map(select(.mode == m and .workers == w)) | first;
{
	generated: $date,
	target_edges: $edges,
	stages: .,
	load_speedup: ((stage("parse"; 1).wall_seconds) / (stage("load").wall_seconds)),
	parse_speedup: ((stage("parse"; 1).wall_seconds) / (stage("parse"; $workers).wall_seconds)),
	fingerprints_match: ([stage("parse"; 1), stage("parse"; $workers), stage("load")]
		| map(.fingerprint) | unique | length == 1)
}' "$results" > "$out"

# The invariants the format exists for: all three load paths see the same
# graph, and the binary load beats re-parsing by a wide margin.
jq -e '.fingerprints_match' "$out" > /dev/null ||
	{ echo "bench_ingest: fingerprints diverge across load paths" >&2; exit 1; }
jq -e '.parse_speedup >= 1.0' "$out" > /dev/null ||
	{ echo "bench_ingest: parse at $workers workers slower than at 1" >&2; exit 1; }
jq -e '.load_speedup >= 50.0' "$out" > /dev/null ||
	{ echo "bench_ingest: csrbin load under 50x parse (got $(jq .load_speedup "$out"))" >&2; exit 1; }

echo "wrote $out (load_speedup $(jq .load_speedup "$out"), parse_speedup $(jq .parse_speedup "$out"))"
