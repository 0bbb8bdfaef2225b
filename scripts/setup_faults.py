#!/usr/bin/env python3
"""Compares the minor page faults of two bench_e2e builds, per process.

`setup_s` follows glibc heap layout more than set-up work, and a
single-threaded workload's minor-fault count repeats exactly from run to
run. So when two builds that should allocate alike differ in faults, an
allocation moved. This runs the two binaries alternately, one child per
run at `--seed 1 --trace 0`, and reads each child's `ru_minflt` with
os.wait4. The build that runs first alternates from pair to pair.

Usage:
  scripts/setup_faults.py PARENT_BENCH_E2E CHANGE_BENCH_E2E
      [--pairs N] [--setup-reps R] [--workloads W [W ...]]

Per workload it prints both builds' fault counts, their `setup_s`
samples (one per run, in ms) with their medians, the change/parent ratio
of those medians next to BENCHMARK.json's `setup_s` bound, and both
builds' fingerprints. It exits 1 when, on any workload, the two builds'
fault medians differ by more than 30 pages, their fingerprints differ or
a run fails, and 2 on bad usage. `mlp_wide_parallel` is not a default
workload: it runs 4 threads and its faults vary from run to run.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

DEFAULT_WORKLOADS = ["lenet_sketchfda", "fleet_codec", "tree_hierfda"]
MAX_FAULT_SHIFT = 30  # pages
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def setup_bound():
    """BENCHMARK.json's relative bound on `setup_s`."""
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "setup_s")


def run_child(binary, workload, setup_reps):
    """Runs one rep; returns (minor faults, setup_s, fingerprint) or an
    error string."""
    argv = [binary, "--workload", workload, "--seed", "1", "--trace", "0",
            "--setup-reps", str(setup_reps)]
    with tempfile.TemporaryFile() as out:
        pid = os.posix_spawn(binary, argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        _, status, usage = os.wait4(pid, 0)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    code = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {}
    if code != 0 or record.get("status") != "OK":
        return "%s: exit %d, status %s" % (binary, code,
                                          record.get("status"))
    return usage.ru_minflt, record["setup_s"], record["fingerprint"]


def main():
    parser = argparse.ArgumentParser(
        description="Alternates two bench_e2e binaries and compares their "
                    "per-process minor faults.")
    parser.add_argument("parent", help="the parent build's bench_e2e")
    parser.add_argument("change", help="the change's bench_e2e")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--setup-reps", type=int, default=9)
    parser.add_argument("--workloads", nargs="+", default=DEFAULT_WORKLOADS)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for binary in (args.parent, args.change):
        if not os.access(binary, os.X_OK):
            parser.error("not an executable: %s" % binary)

    bound = setup_bound()
    failed = False
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        builds = [("parent", args.parent), ("change", args.change)]
        for pair in range(args.pairs):
            for name, binary in builds[::1 if pair % 2 == 0 else -1]:
                result = run_child(binary, workload, args.setup_reps)
                if isinstance(result, str):
                    print("%s: %s" % (workload, result))
                    failed = True
                    continue
                runs[name].append(result)
        if not runs["parent"] or not runs["change"]:
            continue
        print(workload)
        medians = {}
        setup = {}
        prints = {}
        for name, results in runs.items():
            faults = [r[0] for r in results]
            medians[name] = statistics.median(faults)
            setup[name] = statistics.median(r[1] for r in results)
            prints[name] = sorted({r[2] for r in results})
            print("  %s faults   %s  median %g" % (
                name, " ".join(str(f) for f in faults), medians[name]))
            print("  %s setup_ms %s  median %.2f" % (
                name, " ".join("%.2f" % (r[1] * 1e3) for r in results),
                setup[name] * 1e3))
            print("  %s fingerprints %s" % (name, " ".join(prints[name])))
        shift = medians["change"] - medians["parent"]
        verdict = "ok" if abs(shift) <= MAX_FAULT_SHIFT else "MOVED"
        failed = failed or verdict != "ok"
        print("  fault median shift %+g pages: %s" % (shift, verdict))
        print("  setup_s median change/parent %.3f (BENCHMARK.json bound: "
              "+%g%%)" % (setup["change"] / setup["parent"], bound * 100))
        if prints["parent"] != prints["change"]:
            failed = True
            print("  fingerprints DIFFER")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
