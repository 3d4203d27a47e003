#!/usr/bin/env python3
"""Compares two sets of bench_suite results against BENCHMARK.json's bounds.

    python3 benchsuite/compare.py --base A1.jsonl ... --new B1.jsonl ...

Each file holds the JSON lines bench_suite (or run.py) printed; lines that
are not untraced bench_suite results are ignored. For every workload and
end-to-end metric it prints each set's median and quartiles, the pairwise
wins of the new set (runs paired by seed when both sets used the same
seeds, every base run against every new run otherwise) and one verdict:

  improved    the new median is better by more than the base set's spread
              and the new set wins at least 90% of the pairs, or every new
              run beats every base run;
  regressed   the new median is worse by more than the metric's bound;
  unresolved  either set's spread (third minus first quartile) is wider
              than the bound, so neither of the above can be told apart
              from noise;
  unchanged   otherwise.

Bounds are relative to the base median, except that setup_s never counts a
change below 0.1 s. failed_frac (failed / attempted jobs) has bound 0.

Exits 1 on a regression or when any run failed a job, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ABSOLUTE_FLOOR = {"setup_s": 0.1}


def load(paths):
    """Returns {workload: [result, ...]} of the untraced results in paths."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    r = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "workload" in r and "metrics" in r and not r.get("traced"):
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """(base value, new value) pairs, matched by seed when possible."""
    bs = {r["seed"]: v for r, v in base}
    ns = {r["seed"]: v for r, v in new}
    if len(bs) == len(base) and len(ns) == len(new) and set(bs) == set(ns):
        return [(bs[s], ns[s]) for s in sorted(bs)]
    return [(b, n) for _, b in base for _, n in new]


def describe(q):
    return f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"


def values(runs, name):
    """(run, value) of metric name in every run that reports it."""
    if name == "failed_frac":
        return [(r, int(r["failed"]) / max(1, int(r["attempted"])))
                for r in runs]
    return [(r, r["metrics"][name]["value"])
            for r in runs if name in r["metrics"]]


def verdict(base_vals, new_vals, paired, lower_is_better, bound, floor):
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base_vals)
    nq1, nmed, nq3 = quartiles(new_vals)
    tol = max(bound * abs(bmed), floor)
    worse = sign * (nmed - bmed)  # > 0: the new set is worse.
    wins = sum(1 for b, n in paired if sign * (n - b) < 0)
    losses = sum(1 for b, n in paired if sign * (n - b) > 0)
    win_frac = wins / (wins + losses) if wins + losses else 0.0
    all_better = all(sign * (n - b) < 0 for b in base_vals for n in new_vals)
    if all_better and worse < 0:
        v = "improved"
    elif bq3 - bq1 > tol or nq3 - nq1 > tol:
        v = "unresolved"
    elif worse > tol:
        v = "regressed"
    elif -worse > max(bq3 - bq1, floor) and win_frac >= 0.9:
        v = "improved"
    else:
        v = "unchanged"
    return (bq1, bmed, bq3), (nq1, nmed, nq3), win_frac, v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    status = 0
    for side, runs in (("base", base), ("new", new)):
        for w, rs in sorted(runs.items()):
            failed = sum(int(r["failed"]) for r in rs)
            if failed or not all(r["correct"] for r in rs):
                print(f"{side} {w}: {failed} failed job(s) "
                      "or an incorrect run")
                status = 1

    metrics = [(m["name"], m["better"] == "lower", m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_frac", True, 0.0))
    row = "{:<16} {:>22} {:>22} {:>8} {:>6}  {}"
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new:
            side = "base" if w not in base else "new"
            print(f"\n{w}: missing from the {side} set")
            continue
        print(f"\n{w}: {len(base[w])} base run(s), {len(new[w])} new run(s)")
        print(row.format("metric", "base median [q1,q3]", "new median [q1,q3]",
                         "change", "wins", "verdict"))
        for name, lower, bound in metrics:
            b, n = values(base[w], name), values(new[w], name)
            if not b or not n:
                print(f"{name:<16} not reported")
                continue
            bs, ns, win, v = verdict(
                [x for _, x in b], [x for _, x in n], pairs(b, n), lower,
                bound, ABSOLUTE_FLOOR.get(name, 0.0))
            change = (ns[1] - bs[1]) / bs[1] * 100 if bs[1] else 0.0
            print(row.format(name, describe(bs), describe(ns),
                             f"{change:+.1f}%", f"{win:.0%}", v))
            if v == "regressed":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
