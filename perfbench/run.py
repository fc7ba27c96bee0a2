#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

The Go build cache, the binary and every file a run writes live under
.bench_build in the checkout. The build is offline (GOPROXY=off) and uses
the checkout's own sources through the replace directive in
perfbench/go.mod, so it fails fast when they are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
