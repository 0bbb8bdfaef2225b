#!/usr/bin/env python3
"""Unit tests of the benchmark's statistics on synthetic inputs.

    python3 bench/e2e/test_e2e_stats.py
"""

import statistics
import unittest

import e2e_stats
import run


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(e2e_stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value(self):
        self.assertEqual(e2e_stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_relative_spread(self):
        # quantiles([8, 9, 10, 11, 12]) = 8.5, 10, 11.5.
        self.assertAlmostEqual(
            e2e_stats.relative_spread([8, 9, 10, 11, 12]), 0.3)

    def test_summarize(self):
        s = e2e_stats.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(s["n"], 4)
        self.assertEqual(s["median"], 2.5)


class BoundTest(unittest.TestCase):
    def test_worsening_direction(self):
        self.assertAlmostEqual(e2e_stats.worsening(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(e2e_stats.worsening(100, 110, "higher"), -0.1)
        self.assertAlmostEqual(e2e_stats.worsening(100, 90, "higher"), 0.1)

    def test_regression_beyond_bound(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        change = [v * 0.85 for v in parent]
        self.assertEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "regression")

    def test_within_bound_is_unchanged(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        change = [v * 0.97 for v in parent]
        self.assertEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = [80.0, 120.0, 90.0, 110.0, 100.0]
        change = [79.0, 119.0, 89.0, 109.0, 99.0]
        self.assertEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        parent = [80.0, 120.0, 90.0, 110.0, 100.0]
        change = [130.0, 150.0, 140.0, 135.0, 145.0]
        self.assertEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "better")

    def test_deterministic_metrics(self):
        self.assertEqual(e2e_stats.verdict([7, 7], [7, 7], "lower", 0.0),
                         "same")
        self.assertEqual(e2e_stats.verdict([7, 7], [7, 8], "lower", 0.0),
                         "changed")


class PairWinTest(unittest.TestCase):
    def test_ties_count_for_neither(self):
        self.assertEqual(
            e2e_stats.pair_wins([1, 2, 3, 4], [2, 2, 1, 5], "higher"),
            (2, 1, 1))
        self.assertEqual(
            e2e_stats.pair_wins([1, 2, 3, 4], [2, 2, 1, 5], "lower"),
            (1, 2, 1))

    def test_gain_needs_nine_of_ten_and_median_beyond_iqr(self):
        parent = [100.0 + i % 3 for i in range(10)]
        change = [110.0 + i % 3 for i in range(10)]
        self.assertEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "gain")
        change[0] = change[1] = 90.0  # 8 of 10 wins
        self.assertNotEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "gain")

    def test_gain_needs_ten_pairs(self):
        parent = [100.0 + i % 3 for i in range(9)]
        change = [110.0 + i % 3 for i in range(9)]
        self.assertNotEqual(
            e2e_stats.verdict(parent, change, "higher", 0.08), "gain")

    def test_gain_needs_median_shift_beyond_parent_iqr(self):
        parent = [100.0, 130.0] * 5
        change = [101.0, 131.0] * 5
        self.assertNotEqual(
            e2e_stats.verdict(parent, change, "higher", 0.5), "gain")


class JudgeTest(unittest.TestCase):
    def rep(self, fingerprint="a", accuracy=0.99):
        return {"status": "OK", "fingerprint": fingerprint,
                "final_test_accuracy": accuracy, "floor": 0.95}

    def test_counts_each_failure_kind(self):
        records = [self.rep(), self.rep(), self.rep(fingerprint="b"),
                   self.rep(accuracy=0.5), {"error": "timeout"}]
        self.assertEqual(run.judge(records), 3)
        self.assertNotIn("error", records[0])
        self.assertIn("fingerprint", records[2]["error"])
        self.assertIn("floor", records[3]["error"])

    def test_failed_first_rep_leaves_the_rest_as_reference(self):
        records = [{"error": "timeout"}, self.rep(fingerprint="b"),
                   self.rep(fingerprint="b")]
        self.assertEqual(run.judge(records), 1)
        self.assertNotIn("error", records[1])


class RunValuesTest(unittest.TestCase):
    def test_pooled_metrics_concatenate_rep_samples(self):
        reps = [{"window_rates": [1.0, 2.0], "setup_samples": [0.5]},
                {"window_rates": [3.0], "setup_samples": [0.25, 0.75]}]
        self.assertEqual(run.run_values(reps, "rounds_per_s"),
                         [1.0, 2.0, 3.0])
        self.assertEqual(run.run_values(reps, "setup_s"), [0.5, 0.25, 0.75])

    def test_layer_metrics_and_missing_values(self):
        reps = [{"peak_rss_mb": 10.0, "layers": {"trace.coverage": 0.9}}]
        self.assertEqual(run.run_values(reps, "peak_rss_mb"), [10.0])
        self.assertEqual(run.run_values(reps, "trace.coverage"), [0.9])
        self.assertIsNone(run.run_values(reps + [{}], "peak_rss_mb"))


if __name__ == "__main__":
    unittest.main()
