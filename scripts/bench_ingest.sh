#!/usr/bin/env bash
# bench_ingest.sh — benchmark the huge-graph ingestion pipeline and write
# BENCH_ingest.json.
#
# The run generates a near-planar instance (disjoint 12x12 grid
# components, graphgen -kind grids) of at least INGEST_EDGES edges, then
# measures every stage: text parse at 1 worker and at INGEST_WORKERS
# workers and the unverified csrbin mmap load through cmd/mdsingest, the
# text→csrbin conversion through cmd/graphgen (graphgen -in huge.edges
# -format csrbin), the repository's one converter, and the Algorithm 1
# solve through mdsrun -in huge.csrbin -alg alg1. The JSON records one
# entry per stage: wall time and peak RSS (mdsingest reports its own;
# the gen, convert and solve entries are timed by a python3 wrapper that
# takes the child's ru_maxrss), fingerprints from the parse and load
# stages, and n, m, mapped, solution_size and valid read from mdsrun's
# report for the solve stage. Plus the two headline ratios:
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

for cmd in mdsingest graphgen mdsrun; do
	go build -o "$work/$cmd" "./cmd/$cmd"
done

# ingest ARGS...: one mdsingest stage; its JSON report goes to $results.
ingest() {
	echo ">> mdsingest $*" >&2
	"$work/mdsingest" "$@" | tee -a "$results"
}

# timed MODE CMD...: run CMD (its stdout is echoed to stderr) and print
# one JSON stage entry: MODE, the wall time and the child's peak RSS
# (ru_maxrss), plus for an mdsrun report its n, m, mapped, solution size
# and validity.
timed() {
	python3 - "$@" <<'PY'
import json, re, resource, subprocess, sys, time

mode, cmd = sys.argv[1], sys.argv[2:]
print(">> " + " ".join(cmd), file=sys.stderr)
start = time.monotonic()
proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
wall = time.monotonic() - start
sys.stderr.write(proc.stdout)
if proc.returncode != 0:
    sys.exit(f"bench_ingest: {cmd[0]} exited {proc.returncode}")
rep = {"mode": mode, "wall_seconds": wall}
graph = re.search(r"^graph: Graph\(n=(\d+), m=(\d+)\)", proc.stdout, re.M)
if graph:
    rep["n"], rep["m"] = int(graph[1]), int(graph[2])
    rep["mapped"] = "\ncsr: mmap-backed\n" in proc.stdout
    rep["solution_size"] = int(re.search(r"^solution size: (\d+)$", proc.stdout, re.M)[1])
    rep["valid"] = re.search(r"^valid dominating set: (\w+)$", proc.stdout, re.M)[1] == "true"
# Linux reports ru_maxrss in KiB.
rep["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
print(json.dumps(rep))
PY
}

# graphgen -kind grids emits floor(n/144) components of 264 edges each.
comps=$(( (edges + 263) / 264 ))
timed gen "$work/graphgen" -kind grids -n $((comps * 144)) -format edgelist -o "$edgefile" |
	jq -c --argjson n $((comps * 144)) --argjson m $((comps * 264)) '. + {n: $n, m: $m}' | tee -a "$results"
ingest -mode parse -in "$edgefile" -workers 1 -fingerprint
ingest -mode parse -in "$edgefile" -workers "$workers" -fingerprint
GOMAXPROCS="$workers" timed convert "$work/graphgen" -in "$edgefile" -format csrbin -o "$binfile" |
	jq -c --argjson w "$workers" '. + {workers: $w}' | tee -a "$results"
ingest -mode load -in "$binfile" -fingerprint
if [ "$solve" != "0" ]; then
	timed solve "$work/mdsrun" -in "$binfile" -alg alg1 -workers "$workers" -r1 "$r1" -r2 "$r2" |
		jq -c --argjson w "$workers" '. + {workers: $w}' | tee -a "$results"
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
