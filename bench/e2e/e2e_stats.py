"""Statistics shared by run.py and compare.py.

Quartiles follow Python's statistics.quantiles(values, n=4) (the
"exclusive" method). The comparison rule: a gain needs at least ten
parent/change pairs, a win in at least nine tenths of them (ties count
for neither side) and a median difference larger than the parent's own
interquartile range; a metric whose run-to-run spread exceeds its bound
is "unresolved", never "unchanged".
"""

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9

# End-to-end metrics the suite reports beside the ones BENCHMARK.json
# bounds. A bound of 0 means the value is deterministic for a fixed seed
# and must repeat exactly.
SUITE_METRICS = [
    {"name": "loop_rounds_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "time_to_target_s", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "sim_bytes_to_target", "unit": "B", "better": "lower",
     "bound": 0.0},
    {"name": "sim_steps_to_target", "unit": "rounds", "better": "lower",
     "bound": 0.0},
    {"name": "sim_seconds_to_target", "unit": "sim_s", "better": "lower",
     "bound": 0.0},
    {"name": "final_test_accuracy", "unit": "fraction", "better": "higher",
     "bound": 0.0},
    {"name": "run_failures", "unit": "share", "better": "lower",
     "bound": 0.0},
]


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def suite_metrics(benchmark):
    """Every end-to-end metric the suite reports, BENCHMARK.json's first."""
    names = {m["name"] for m in benchmark["end_to_end"]}
    return list(benchmark["end_to_end"]) + [
        m for m in SUITE_METRICS if m["name"] not in names]


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return -delta if better == "higher" else delta


def pair_wins(parent_values, change_values, better):
    """(wins, losses, ties) of the change over index-aligned pairs."""
    wins = losses = ties = 0
    for p, c in zip(parent_values, change_values):
        if c == p:
            ties += 1
        elif (c > p) == (better == "higher"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(parent_values, change_values, better, bound):
    """Classifies one (workload, metric) comparison.

    Returns one of "gain", "better", "unchanged", "regression",
    "unresolved", "changed" (a deterministic metric that moved) or
    "same" (a deterministic metric that repeated exactly).
    """
    parent_values = list(parent_values)
    change_values = list(change_values)
    if bound == 0:
        return "same" if parent_values == change_values else "changed"
    p1, parent_median, p3 = quartiles(parent_values)
    _, change_median, _ = quartiles(change_values)
    pairs = min(len(parent_values), len(change_values))
    wins, _, _ = pair_wins(parent_values, change_values, better)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and abs(change_median - parent_median) > p3 - p1):
        return "gain"
    if max(relative_spread(parent_values),
           relative_spread(change_values)) > bound:
        if better == "higher":
            all_better = min(change_values) > max(parent_values)
        else:
            all_better = max(change_values) < min(parent_values)
        return "better" if all_better else "unresolved"
    if worsening(parent_median, change_median, better) > bound:
        return "regression"
    return "unchanged"
