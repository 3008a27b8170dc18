#!/usr/bin/env python3
"""Exit-code contract of the bench regression gate (bench/compare.py).

The gate is what CI keys off, so its exit codes are load-bearing API:
0 = pass, 1 = regression beyond tolerance, 2 = could not run (missing or
malformed input). Golden fixtures in tests/data/compare/ pin each path,
including the two anti-flake rules — the >10% relative tolerance and the
20 ns absolute floor — and the aggregate-row skip.

Run directly (python3 tests/test_compare_gate.py) or via ctest as
`compare_gate`.
"""

import os
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS_DIR)
COMPARE = os.path.join(REPO, "bench", "compare.py")
DATA = os.path.join(TESTS_DIR, "data", "compare")


def run_gate(current, baseline, env=None, flags=None):
    """Run compare.py on fixture names; returns (exit_code, stdout)."""
    merged = dict(os.environ)
    merged.pop("NVC_BENCH_TOLERANCE", None)
    merged.pop("NVC_BENCH_MIN_DELTA_NS", None)
    merged.pop("NVC_BENCH_THREADS_NOISE", None)
    merged.update(env or {})
    proc = subprocess.run(
        [sys.executable, COMPARE] + (flags or []) +
        [os.path.join(DATA, current), os.path.join(DATA, baseline)],
        capture_output=True, text=True, env=merged, check=False)
    return proc.returncode, proc.stdout + proc.stderr


class CompareGateTest(unittest.TestCase):
    def test_pass_run_exits_zero(self):
        code, out = run_gate("current_pass.json", "baseline.json")
        self.assertEqual(code, 0, out)
        self.assertIn("no regression", out)
        # 8 -> 14 ns is a 75% ratio but only a 6 ns delta: the absolute
        # floor keeps sub-noise micros out of the gate.
        self.assertNotIn("REGRESSED", out)
        # Rows present on only one side are reported, never failures.
        self.assertIn("MISSING", out)
        self.assertIn("NEW", out)

    def test_missing_only_within_measured_families(self):
        # The run measured BM_AnalyzeBurst/4096 but not /65536: that row is
        # MISSING. It measured nothing of BM_RetiredFamily, so that row is
        # only counted in the summary line, not listed.
        code, out = run_gate("current_pass.json", "baseline.json")
        self.assertEqual(code, 0, out)
        self.assertIn("MISSING  BM_AnalyzeBurst/65536", out)
        self.assertNotIn("MISSING  BM_RetiredFamily", out)
        self.assertIn("1 baseline rows not measured "
                      "(families left out: BM_RetiredFamily)", out)

    def test_run_measuring_every_family_prints_no_summary(self):
        # The run measures every baseline family, so no "not measured"
        # line appears.
        code, out = run_gate("current_exact_ok.json", "baseline_exact.json")
        self.assertEqual(code, 0, out)
        self.assertNotIn("not measured", out)

    def test_aggregate_rows_are_skipped(self):
        # current_pass.json carries a mean row at 400 ns for a 120 ns
        # baseline; if aggregates leaked into the comparison this would
        # regress.
        code, out = run_gate("current_pass.json", "baseline.json")
        self.assertEqual(code, 0, out)

    def test_regression_beyond_tolerance_exits_one(self):
        code, out = run_gate("current_regressed.json", "baseline.json")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)
        self.assertIn("BM_PstoreStrict/64", out)

    def test_tolerance_env_override_widens_the_gate(self):
        # The same regressed run passes at 50% tolerance (1.42x < 1.5x).
        code, out = run_gate("current_regressed.json", "baseline.json",
                             env={"NVC_BENCH_TOLERANCE": "0.5"})
        self.assertEqual(code, 0, out)

    def test_missing_baseline_exits_two(self):
        code, out = run_gate("current_pass.json", "no_such_baseline.json")
        self.assertEqual(code, 2, out)
        self.assertIn("cannot load results", out)

    def test_missing_current_exits_two(self):
        code, out = run_gate("no_such_current.json", "baseline.json")
        self.assertEqual(code, 2, out)

    def test_malformed_input_exits_two(self):
        code, out = run_gate("malformed.json", "baseline.json")
        self.assertEqual(code, 2, out)
        self.assertIn("malformed", out)

    def test_threads_noise_default_absorbs_mt_swing(self):
        # The pooled-drain entry carries threads:8 and swings +60% — inside
        # the default 75% multi-threaded envelope, so the gate passes even
        # though 60% is far beyond the 10% single-threaded tolerance.
        code, out = run_gate("current_threads_noisy.json",
                             "baseline_threads.json")
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSED", out)

    def test_threads_noise_flag_tightens_mt_gate(self):
        # Narrowing the envelope to 30% makes the same +60% swing a
        # failure, and only the threads>1 entry trips.
        code, out = run_gate("current_threads_noisy.json",
                             "baseline_threads.json",
                             flags=["--threads-noise", "0.3"])
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)
        self.assertIn("BM_FlushPipelineDrainPool/workers:4/threads:8", out)
        self.assertNotIn("REGRESSED BM_PstoreStrict", out)

    def test_threads_noise_env_matches_flag(self):
        code, out = run_gate("current_threads_noisy.json",
                             "baseline_threads.json",
                             env={"NVC_BENCH_THREADS_NOISE": "0.3"})
        self.assertEqual(code, 1, out)

    def test_threads_noise_leaves_single_threaded_tight(self):
        # A +67% single-threaded regression still fails at the 10%
        # tolerance; the wide multi-threaded envelope must not leak.
        code, out = run_gate("current_threads_st_regressed.json",
                             "baseline_threads.json")
        self.assertEqual(code, 1, out)
        self.assertIn("BM_PstoreStrict/64", out)

    def test_exact_counters_match_exits_zero(self):
        # The exact_* counters agree bit for bit; regular counters
        # (flushes 2 -> 3) and an exact counter present only in the
        # baseline are reported but never gated, and the wear_* counter
        # without the exact_ prefix stays ungated even though it moved.
        code, out = run_gate("current_exact_ok.json", "baseline_exact.json")
        self.assertEqual(code, 0, out)
        self.assertIn("exact counters matched", out)
        self.assertIn("EXACT?", out)  # exact_bypassed only in the baseline
        self.assertNotIn("EXACT!", out)

    def test_exact_counter_divergence_exits_one(self):
        # Time moved well inside the 10% envelope, but an exact counter
        # diverged (4632 -> 8192 bytes/FASE): zero tolerance, gate fails.
        code, out = run_gate("current_exact_regressed.json",
                             "baseline_exact.json")
        self.assertEqual(code, 1, out)
        self.assertIn("EXACT!", out)
        self.assertIn("exact_bytes_per_fase", out)
        self.assertNotIn("REGRESSED", out)

    def test_exact_counter_gate_ignores_tolerance_env(self):
        # NVC_BENCH_TOLERANCE only widens the time envelope; exact
        # counters stay zero-tolerance.
        code, out = run_gate("current_exact_regressed.json",
                             "baseline_exact.json",
                             env={"NVC_BENCH_TOLERANCE": "5.0"})
        self.assertEqual(code, 1, out)
        self.assertIn("exact counters diverged", out)

    def test_threads_noise_bad_value_exits_two(self):
        code, out = run_gate("current_threads_noisy.json",
                             "baseline_threads.json",
                             flags=["--threads-noise", "wide"])
        self.assertEqual(code, 2, out)

    def test_threads_noise_missing_value_exits_two(self):
        code, out = run_gate("current_threads_noisy.json",
                             "baseline_threads.json",
                             flags=["--threads-noise"])
        self.assertEqual(code, 2, out)


if __name__ == "__main__":
    unittest.main()
