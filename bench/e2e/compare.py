#!/usr/bin/env python3
"""Compares two suite files written by `run.py --suite`.

    python3 bench/e2e/compare.py parent.json change.json
    python3 bench/e2e/compare.py baseline.json

Each file holds one or more suite invocations; a metric's values are the
reps of all invocations in order, and rep i of the parent pairs with rep i
of the change. To get alternating pairs, run both checkouts one rep at a
time, swapping which goes first, with `run.py --suite --reps 1 --append
--out <file>`. With one file, its first invocation is compared with its
second (two sets of runs of one commit must agree).

One row per (workload, metric), with both medians and quartiles, the
change's pair wins and the verdict (see e2e_stats.verdict). Bounds are
BENCHMARK.json's, plus e2e_stats.SUITE_METRICS for the suite-only metrics.
The exit code is 1 when any row is a regression or a deterministic metric
changed, else 0. Host-only changes must leave every "same" row the same.
"""

import json
import sys

import e2e_stats


def pooled(invocations, workload, metric):
    values = []
    for inv in invocations:
        entry = inv["workloads"].get(workload, {}).get("metrics", {})
        values += entry.get(metric, {}).get("values", [])
    return values


def compare(parent, change):
    metrics = e2e_stats.suite_metrics(e2e_stats.load_benchmark())
    workloads = [w for w in parent[0]["workloads"]
                 if w in change[0]["workloads"]]
    print("%-18s %-22s %12s %-23s %12s %-23s %7s  %s" % (
        "workload", "metric", "parent", "(q1..q3)", "change", "(q1..q3)",
        "wins", "verdict"))
    bad = 0
    for workload in workloads:
        for m in metrics:
            p = pooled(parent, workload, m["name"])
            c = pooled(change, workload, m["name"])
            if not p or not c:
                continue
            ps, cs = e2e_stats.summarize(p), e2e_stats.summarize(c)
            wins, _, _ = e2e_stats.pair_wins(p, c, m["better"])
            v = e2e_stats.verdict(p, c, m["better"], m["bound"])
            if v in ("regression", "changed"):
                bad += 1
            print("%-18s %-22s %12.6g %-23s %12.6g %-23s %3d/%-3d  %s" % (
                workload, m["name"], ps["median"],
                "(%.5g..%.5g)" % (ps["q1"], ps["q3"]), cs["median"],
                "(%.5g..%.5g)" % (cs["q1"], cs["q3"]), wins,
                min(len(p), len(c)), v))
    pairs = min(len(pooled(parent, w, "rounds_per_s")) for w in workloads)
    if pairs < e2e_stats.MIN_PAIRS:
        print("\n%d pairs: a gain needs at least %d alternating pairs, so "
              "none is claimed." % (pairs, e2e_stats.MIN_PAIRS))
    return 1 if bad else 0


def main():
    if len(sys.argv) == 2:
        with open(sys.argv[1]) as f:
            invocations = json.load(f)["invocations"]
        if len(invocations) < 2:
            sys.exit("compare.py: %s holds one invocation" % sys.argv[1])
        return compare(invocations[:1], invocations[1:2])
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        parent = json.load(f)["invocations"]
    with open(sys.argv[2]) as f:
        change = json.load(f)["invocations"]
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main())
