#!/usr/bin/env python3
"""Unit tests for perfbench/sweep.py: quartiles across runs, spread, the
bound check between two sweeps, and the provenance flag.

    python3 perfbench/test_sweep.py     (also run by run.py --selftest)
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import sweep  # noqa: E402


class SweepStatsTest(unittest.TestCase):
    def test_quartiles_match_statistics_default(self):
        # statistics.quantiles(range(1, 11), n=4) -> [2.75, 5.5, 8.25].
        s = sweep.summarize(list(range(1, 11)))
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(sweep.spread([100.0] * 10), 0.0)
        self.assertEqual(sweep.summarize([3.0])["spread"], 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(sweep.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(sweep.worse_by(100.0, 110.0, "higher"), -0.1)
        self.assertAlmostEqual(sweep.worse_by(100.0, 80.0, "higher"), 0.2)

    def test_compare_flags_a_regression_beyond_the_bound(self):
        bench = {"end_to_end": [
            {"name": "cost", "unit": "us", "better": "lower", "bound": 0.1}]}
        old = {"w": {"values": {"cost": [10.0, 10.0, 10.0]},
                     "provenance": [{"nproc": 4}]}}
        ok = {"w": {"values": {"cost": [10.5, 10.5, 10.5]},
                    "provenance": [{"nproc": 4}]}}
        bad = {"w": {"values": {"cost": [12.0, 12.0, 12.0]},
                     "provenance": [{"nproc": 4}]}}
        self.assertTrue(sweep.compare(bench, old, ok))
        self.assertFalse(sweep.compare(bench, old, bad))

    def test_different_thread_counts_are_flagged(self):
        self.assertEqual(sweep.provenance_mismatch(
            [{"nproc": 4, "kernel_isa": "avx2"},
             {"nproc": 4, "kernel_isa": "avx2"}]), {})
        self.assertIn("nproc", sweep.provenance_mismatch(
            [{"nproc": 4}, {"nproc": 1}]))

    def test_parse_seeds(self):
        self.assertEqual(sweep.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
