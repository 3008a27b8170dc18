#!/usr/bin/env python3
"""Unit tests for ab.py's quartile, spread and verdict helpers."""
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(ab.quartiles(values), statistics.quantiles(values, n=4))
        self.assertEqual(ab.quartiles(values)[1], statistics.median(values))

    def test_single_value(self):
        self.assertEqual(ab.quartiles([3.0]), [3.0, 3.0, 3.0])

    def test_spread_is_interquartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(ab.spread(values), (q3 - q1) / median)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class Verdict(unittest.TestCase):
    def test_same_numbers_are_unchanged(self):
        self.assertEqual(ab.verdict(PARENT, list(PARENT), 0.05, "lower"), "unchanged")

    def test_small_slowdown_inside_the_bound_is_unchanged(self):
        change = [v * 1.02 for v in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, 0.05, "lower"), "unchanged")

    def test_slowdown_beyond_the_bound_regresses(self):
        change = [v * 1.10 for v in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, 0.05, "lower"), "regressed")

    def test_consistent_speedup_improves(self):
        change = [v * 0.95 for v in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, 0.05, "lower"), "improved")

    def test_higher_is_better_flips_the_direction(self):
        self.assertEqual(ab.verdict(PARENT, [v * 1.05 for v in PARENT], 0.05, "higher"),
                         "improved")
        self.assertEqual(ab.verdict(PARENT, [v * 0.90 for v in PARENT], 0.05, "higher"),
                         "regressed")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(ab.verdict(noisy, list(reversed(noisy)), 0.05, "lower"),
                         "unresolved")
        self.assertEqual(ab.verdict(noisy, [v / 10 for v in noisy], 0.05, "lower"),
                         "improved")

    def test_wins_without_a_gap_beyond_the_parent_spread_are_unchanged(self):
        change = [v - 0.01 for v in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, 0.05, "lower"), "unchanged")


if __name__ == "__main__":
    unittest.main()
