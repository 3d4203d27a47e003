#!/usr/bin/env python3
"""Fail-soft trend gate over BENCH_engine.json.

Compares the current run's bench report against a baseline (normally the
previous successful CI run's artifact) and emits GitHub warning
annotations for regressions beyond a threshold:

  - jobs/sec drops  > threshold in any section point (sweep, cache,
    shards, budget, learning, obs, zoo),
  - cache/memo hit-rate drops > threshold (relative) in the cache
    section,
  - total checker-query INCREASES > threshold in the learning "on" mode
    (fewer queries is the point of the constraint store),
  - p50/p95/p99 job-latency INCREASES > threshold in the sweep, shards,
    and budget sections (lower is better),
  - per-phase cpu-second INCREASES or per-phase share INCREASES >
    threshold in the "phases" section's profiled passes (cpu_s sums the
    four instrumented phases across every shard; the *_share fields
    normalize each phase against that sum, so the two runs compare like
    with like even when shard counts differ),
  - shard-scaling speedup drops > threshold and checker-query INCREASES
    in the shards section (query-neutrality of the sharded search),
  - obs overhead_pct INCREASES > threshold in the metrics/trace tiers
    (the instrumentation-cost budget),
  - jobs/sec drops or checker-query INCREASES > threshold in the "zoo"
    section's 500+-switch fabric points (scenario-zoo-at-scale cost;
    hard correctness failures there abort the bench itself, so the gate
    only prices the throughput).

Unknown top-level keys and unknown fields inside section points are
ignored, and sections absent from either file are skipped, so old and
new bench formats compare against each other without errors — the gate
only ever looks at fields both files have.

Sections are only compared when both files measured them at the same
per-section scale (the bench floors its parallel sections and records
the effective scale precisely so this script never compares different
workload sizes). Parallel sections (sweep, shards, budget) are
additionally skipped when the two runs report different
hardware_threads — speedups from different machines are not comparable.

By default always exits 0: CI perf numbers are noisy across runners, so
the gate warns and records, it never blocks. Set
NETUPD_BENCH_TREND_ENFORCE=1 to exit nonzero when any regression beyond
the threshold was found (for perf-focused CI lanes with pinned
runners). Usage:

  check_bench_trend.py BASELINE.json CURRENT.json [--threshold 0.25]
"""

import argparse
import json
import os
import sys

REGRESSIONS = []


def warn(msg):
    # GitHub annotation syntax; plain text everywhere else.
    REGRESSIONS.append(msg)
    print(f"::warning title=bench trend::{msg}")


def note(msg):
    print(f"bench-trend: {msg}")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        note(f"cannot read {path}: {e}")
        return None


def section_scale(doc, section):
    return doc.get(f"{section}_scale", doc.get("scale"))


def rel_drop(base, cur):
    """Relative drop of cur below base; <= 0 means no regression."""
    if base is None or cur is None or base <= 0:
        return 0.0
    return (base - cur) / base


def index_by(points, key):
    return {p.get(key): p for p in points if key in p}


def compare_metric(section, label, base_pt, cur_pt, metric, threshold,
                   lower_is_better=False):
    base_v = base_pt.get(metric)
    cur_v = cur_pt.get(metric)
    if base_v is None or cur_v is None or base_v <= 0:
        return
    if lower_is_better:
        regression = (cur_v - base_v) / base_v  # Increase over baseline.
        direction = "rose"
    else:
        regression = rel_drop(base_v, cur_v)
        direction = "dropped"
    if regression > threshold:
        warn(f"{section}[{label}] {metric} {direction} "
             f"{regression * 100:.0f}%: {base_v} -> {cur_v}")


def compare_section(base, cur, section, key, metrics, threshold):
    if section_scale(base, section) != section_scale(cur, section):
        note(f"skipping '{section}': scales differ "
             f"({section_scale(base, section)} vs "
             f"{section_scale(cur, section)})")
        return
    base_pts = index_by(base.get(section, []), key)
    cur_pts = index_by(cur.get(section, []), key)
    for label, cur_pt in cur_pts.items():
        base_pt = base_pts.get(label)
        if base_pt is None:
            continue
        for metric, lower_is_better in metrics:
            compare_metric(section, label, base_pt, cur_pt, metric,
                           threshold, lower_is_better)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25)
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    if base is None:
        note("no baseline available; nothing to compare (first run?)")
        return 0
    if cur is None:
        warn("current BENCH_engine.json unreadable; bench may have failed")
        return 0

    t = args.threshold
    pct = [("p50_ms", True), ("p95_ms", True), ("p99_ms", True)]
    # Speedups only mean something on the same core count; refuse to
    # compare the parallel sections across machines. Files without the
    # field (old format) compare as before.
    base_hw = base.get("hardware_threads")
    cur_hw = cur.get("hardware_threads")
    same_machine = base_hw is None or cur_hw is None or base_hw == cur_hw
    if not same_machine:
        note(f"skipping parallel sections: hardware_threads differ "
             f"({base_hw} vs {cur_hw})")
    if same_machine:
        compare_section(base, cur, "sweep", "workers",
                        [("jobs_per_sec", False)] + pct, t)
    compare_section(base, cur, "cache", "mode",
                    [("jobs_per_sec", False),
                     ("engine_cache_hit_rate", False),
                     ("memo_hit_rate", False)], t)
    if same_machine:
        # speedup guards shard scaling itself; total_queries guards the
        # query-neutrality of the sharded search (steal binds and claim
        # races must not inflate checker work).
        compare_section(base, cur, "shards", "shards",
                        [("jobs_per_sec", False), ("speedup", False),
                         ("total_queries", True)] + pct, t)
        compare_section(base, cur, "budget", "shards",
                        [("jobs_per_sec", False)] + pct, t)
    compare_section(base, cur, "learning", "mode",
                    [("jobs_per_sec", False),
                     ("total_queries", True)], t)
    compare_section(base, cur, "zoo", "name",
                    [("jobs_per_sec", False),
                     ("total_queries", True)], t)
    # The obs overhead modes: a jobs/sec drop in "off" is an overhead
    # regression of the always-on tier; overhead_pct rises in
    # "metrics"/"trace" price the optional tiers directly (relative to
    # the same-run "off" pass, so it is machine-noise resistant).
    # Phases compare per (section, param) pair via a composite label;
    # thread-second increases are regressions.
    compare_section(base, cur, "obs", "mode",
                    [("jobs_per_sec", False),
                     ("overhead_pct", True)], t)
    for doc in (base, cur):
        for p in doc.get("phases", []):
            if isinstance(p, dict) and "section" in p and "param" in p:
                p["_phase_key"] = f"{p['section']}@{p['param']}"
    compare_section(base, cur, "phases", "_phase_key",
                    [("cpu_s", True), ("check_share", True),
                     ("mutate_share", True), ("prune_share", True),
                     ("sat_share", True)], t)
    note(f"comparison complete: {len(REGRESSIONS)} regression(s) beyond "
         f"{t * 100:.0f}%")
    if REGRESSIONS and os.environ.get("NETUPD_BENCH_TREND_ENFORCE") == "1":
        note("NETUPD_BENCH_TREND_ENFORCE=1: failing the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
