#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs one workload.

    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a netupd checkout. The first call configures and
builds into the directory named by CARGO_TARGET_DIR (default .bench_build);
later calls only rebuild what changed. Build output goes to stderr.

stdout carries bench_suite's own result line and then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, measured
with tracing off; with --trace 1 they are its per_layer metrics, from a run
that also writes BENCH_suite_trace_<workload>.json into the build directory.

Exits non-zero without printing a result when the checkout cannot be built
or bench_suite fails to produce one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the bench_suite target."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_suite",
                   "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)

    cmd = [os.path.join(build_dir, "bench_suite"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace-dir", build_dir]
    if args.trace:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_suite did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"bench_suite printed no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    print(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"bench_suite did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
