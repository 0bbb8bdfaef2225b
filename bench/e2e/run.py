#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench_e2e, runs it, checks outputs.

One workload, as the repository's BENCHMARK.json command:

    python3 bench/e2e/run.py --workload lenet_sketchfda --seed 1 \\
        --seconds 10 --trace 0

runs untraced bench_e2e reps (one child process each, one full training
run per rep) until --seconds have passed; with --trace 1 one traced rep
follows. It prints every metric by name with its unit, median, quartiles
and sample count, then, as its last line, one JSON object with "correct",
"attempted", "failed" and "metrics": the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

The whole suite, for humans and for compare.py:

    python3 bench/e2e/run.py --suite [--reps 3] [--seed 1] [--trace 0] \\
        [--out FILE [--append]]

runs --reps untraced reps round-robin across the workloads, then (unless
--trace 0) one traced rep each, prints every end-to-end metric per
workload, and writes FILE (default .bench_build/e2e/suite.json) with the
per-rep values and host metadata. --append adds this invocation to FILE's
list instead of replacing it.

    python3 bench/e2e/run.py --smoke

runs `bench_e2e --smoke`: every workload for 30 rounds, untraced and
traced, failing on an error or a fingerprint mismatch.

A rep fails on a non-OK Status, a crash or timeout, a history/CommStats
fingerprint that differs from the first rep of the run (traced reps
included), or a final test accuracy below the workload's floor. The exit
code is non-zero when any rep failed or nothing could be built; a
single-workload run whose reps all failed prints no result line.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import e2e_stats

ROOT = e2e_stats.ROOT
SOURCE_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "bench_e2e"
RUN_BUDGET_S = 165.0   # a single-workload run ends within 3 min of its build
CHILD_TIMEOUT_S = 120.0
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(message):
    print(message, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns False on failure."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
                  "-j", str(BUILD_JOBS)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n"
                             % " ".join(step))
            return False
    return BINARY.exists()


def run_child(workload, seed, trace, timeout=CHILD_TIMEOUT_S,
              time_setup=True):
    """Runs one bench_e2e rep; returns its JSON record (with an "error"
    key when it did not finish with an OK status). Traced reps, and reps
    with `time_setup` off, skip the repeated set-up runs."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if trace or not time_setup:
        cmd += ["--setup-reps", "0"]
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / ("%s_seed%d.json" % (workload, seed)))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": "timeout"}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"workload": workload}
    if done.returncode != 0 or record.get("status") != "OK":
        record["error"] = record.get(
            "status", "exit %d: %s" % (done.returncode,
                                       done.stderr.strip()[-300:]))
    return record


def judge(records):
    """Marks failed reps in place; returns the number that failed."""
    reference = next((r["fingerprint"] for r in records
                      if "error" not in r), None)
    failed = 0
    for r in records:
        if "error" not in r:
            if r["fingerprint"] != reference:
                r["error"] = "fingerprint %s != %s" % (r["fingerprint"],
                                                       reference)
            elif r["final_test_accuracy"] < r["floor"]:
                r["error"] = "accuracy %.4f below floor %.4f" % (
                    r["final_test_accuracy"], r["floor"])
        failed += "error" in r
    return failed


def add_trace_overhead(traced, untraced):
    """trace.overhead: traced loop time over the untraced median, minus 1."""
    median_loop = e2e_stats.quartiles(r["loop_s"] for r in untraced)[1]
    traced["layers"]["trace.overhead"] = traced["loop_s"] / median_loop - 1.0


# Metrics whose run value is the median over samples pooled from every
# rep: each rep reports a list of them.
POOLED = {"rounds_per_s": "window_rates", "setup_s": "setup_samples"}


def metric_value(record, name):
    if name in record:
        return record[name]
    return record.get("layers", {}).get(name)


def run_values(records, name):
    """A metric's samples in one single-workload run; None if a rep lacks
    it."""
    if name in POOLED:
        return [v for r in records for v in r[POOLED[name]]]
    values = [metric_value(r, name) for r in records]
    return None if any(v is None for v in values) else values


def describe(name, unit, values):
    s = e2e_stats.summarize(values)
    line = "  %-44s %14.6g %-8s" % (name, s["median"], unit)
    if s["n"] == 1:
        return line
    return line + " q1 %.6g  q3 %.6g  n %d" % (s["q1"], s["q3"], s["n"])


# --------------------------------------------------- single-workload mode --

def single_workload(args):
    benchmark = e2e_stats.load_benchmark()
    if not build():
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    measure_end = time.monotonic() + args.seconds
    reps = []
    while not reps or time.monotonic() < measure_end:
        reps.append(run_child(args.workload, args.seed, False,
                              timeout=min(CHILD_TIMEOUT_S,
                                          deadline - time.monotonic()),
                              time_setup=not args.trace))
        if "error" in reps[-1]:
            break
    traced = None
    if args.trace:
        traced = run_child(args.workload, args.seed, True,
                           timeout=deadline - time.monotonic())
    records = reps + ([traced] if traced else [])
    failed = judge(records)
    for r in records:
        if "error" in r:
            log("FAILED rep: %s" % r["error"])
    ok_reps = [r for r in reps if "error" not in r]
    if not ok_reps or (traced is not None and "error" in traced):
        return 1

    if args.trace:
        add_trace_overhead(traced, ok_reps)
        wanted, sources = benchmark["per_layer"], [traced]
    else:
        wanted, sources = benchmark["end_to_end"], ok_reps
    log("%s seed %d: %d reps, %d failed" % (args.workload, args.seed,
                                            len(records), failed))
    metrics = {}
    for m in wanted:
        values = run_values(sources, m["name"])
        if not values:
            log("run.py: metric %s missing from bench_e2e output" % m["name"])
            return 1
        log(describe(m["name"], m["unit"], values))
        metrics[m["name"]] = {"value": e2e_stats.quartiles(values)[1],
                              "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


# ------------------------------------------------------------- suite mode --

def git_commit():
    """HEAD's hash, suffixed "-dirty" when the work tree has changes."""
    if not (ROOT / ".git").exists():
        return "unknown"

    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT)] + list(argv),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              text=True).stdout.strip()

    commit = git("rev-parse", "HEAD") or "unknown"
    return commit + ("-dirty" if git("status", "--porcelain") else "")


def workload_names():
    done = subprocess.run([str(BINARY), "--list"], stdout=subprocess.PIPE,
                          text=True, check=True)
    return done.stdout.split()


def suite(args):
    benchmark = e2e_stats.load_benchmark()
    if not build():
        return 1
    traced_pass = args.trace != 0
    names = workload_names()
    reps = {name: [] for name in names}
    traced = {}
    for rep in range(args.reps):
        for name in names:
            record = run_child(name, args.seed, False)
            log("rep %d %-18s %s" % (rep + 1, name,
                                     record.get("error", "ok")))
            reps[name].append(record)
    for name in names if traced_pass else []:
        traced[name] = run_child(name, args.seed, True)
        log("traced %-18s %s" % (name, traced[name].get("error", "ok")))

    host = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": git_commit(),
            "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")}
    invocation = {"host": host, "seed": args.seed, "workloads": {}}
    total_failed = 0
    for name in names:
        records = reps[name] + ([traced[name]] if name in traced else [])
        failed = judge(records)
        total_failed += failed
        ok = [r for r in reps[name] if "error" not in r]
        entry = {"attempted": len(records), "failed": failed, "metrics": {}}
        log("\n%s: %d reps%s, %d failed" % (
            name, len(reps[name]), " + 1 traced" if name in traced else "",
            failed))
        for r in records:
            if "error" in r:
                log("  FAILED: %s" % r["error"])
        if ok:
            host.setdefault("simd", ok[0]["simd"])
            host.setdefault("compiler", ok[0]["compiler"])
            entry["threads"] = ok[0]["threads"]
        for m in e2e_stats.suite_metrics(benchmark):
            if m["name"] == "run_failures":
                values = [failed / len(records)]
            else:
                values = [metric_value(r, m["name"]) for r in ok]
                values = [v for v in values if v is not None]
            if not values:
                log("  %-44s %14s" % (m["name"], "n/a"))
                continue
            log(describe(m["name"], m["unit"], values))
            entry["metrics"][m["name"]] = dict(
                e2e_stats.summarize(values), unit=m["unit"], values=values)
        t = traced.get(name)
        if t is not None and "error" not in t and ok:
            add_trace_overhead(t, ok)
            entry["layers"] = t["layers"]
            log("  traced: coverage %.3f, overhead %+.3f, policy share %.3f"
                % (t["layers"]["trace.coverage"],
                   t["layers"]["trace.overhead"],
                   t["layers"]["core.policy.share"]))
        invocation["workloads"][name] = entry

    out = Path(args.out) if args.out else BUILD_DIR / "suite.json"
    data = {"invocations": []}
    if args.append and out.exists():
        with open(out) as f:
            data = json.load(f)
    data["invocations"].append(invocation)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    log("\nwrote %s (%d invocation(s)); %d failed rep(s)"
        % (out, len(data["invocations"]), total_failed))
    return 1 if total_failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return subprocess.run([str(BINARY), "--smoke"]).returncode \
            if build() else 1
    if args.suite:
        return suite(args)
    if not args.workload:
        parser.error("--workload is required without --suite or --smoke")
    return single_workload(args)


if __name__ == "__main__":
    sys.exit(main())
