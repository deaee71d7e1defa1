#!/usr/bin/env python3
"""Tests for tools/check_perf_regression.py — the CI perf gate.

Covers the contract edges the CI job relies on: a baseline missing the
gated kernel, malformed JSON input, and the exactly-at-threshold boundary
(2.00x must PASS; the gate is `ratio <= factor`, regression is strictly
beyond the factor).

Run directly or via ctest (`ctest -L perf`).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
GATE = os.path.join(REPO, "tools", "check_perf_regression.py")
KERNEL = "bti.trap_ensemble.evolve"


def bench_doc(ns_per_call, kernel=KERNEL):
    return {"kernels": [{"name": kernel, "ns_per_call": ns_per_call}]}


class CheckPerfRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_gate(self, *argv):
        proc = subprocess.run(
            [sys.executable, GATE, *argv], capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def test_ok_within_factor(self):
        cur = self.write("cur.json", bench_doc(120.0))
        base = self.write("base.json", bench_doc(100.0))
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_regression_beyond_factor(self):
        cur = self.write("cur.json", bench_doc(250.0))
        base = self.write("base.json", bench_doc(100.0))
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_exactly_at_factor_passes(self):
        # ratio == factor is inside the gate: 2x on the nose is noise
        # tolerance, not a regression.
        cur = self.write("cur.json", bench_doc(200.0))
        base = self.write("base.json", bench_doc(100.0))
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 0, out)
        self.assertIn("2.00x", out)
        self.assertIn("OK", out)

    def test_just_beyond_factor_fails(self):
        cur = self.write("cur.json", bench_doc(200.0001))
        base = self.write("base.json", bench_doc(100.0))
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)

    def test_custom_factor(self):
        cur = self.write("cur.json", bench_doc(140.0))
        base = self.write("base.json", bench_doc(100.0))
        code, _, _ = self.run_gate(cur, base, "--factor=1.5")
        self.assertEqual(code, 0)
        code, _, _ = self.run_gate(cur, base, "--factor=1.3")
        self.assertEqual(code, 1)

    def test_missing_kernel_key_in_baseline(self):
        cur = self.write("cur.json", bench_doc(100.0))
        base = self.write("base.json", bench_doc(100.0, kernel="other.kernel"))
        code, _, err = self.run_gate(cur, base)
        self.assertEqual(code, 2)
        self.assertIn(KERNEL, err)

    def test_missing_kernels_array(self):
        cur = self.write("cur.json", bench_doc(100.0))
        base = self.write("base.json", {"not_kernels": []})
        code, _, err = self.run_gate(cur, base)
        self.assertEqual(code, 2)
        self.assertIn("check_perf_regression", err)

    def test_malformed_json(self):
        cur = self.write("cur.json", "{not json at all")
        base = self.write("base.json", bench_doc(100.0))
        code, _, err = self.run_gate(cur, base)
        self.assertEqual(code, 2)
        self.assertIn("check_perf_regression", err)

    def test_missing_baseline_file(self):
        cur = self.write("cur.json", bench_doc(100.0))
        missing = os.path.join(self.dir.name, "nope.json")
        code, _, err = self.run_gate(cur, missing)
        self.assertEqual(code, 2)
        self.assertIn("check_perf_regression", err)

    def test_no_arguments_prints_usage(self):
        code, _, err = self.run_gate()
        self.assertEqual(code, 2)
        self.assertIn("Usage", err)

    def test_zero_baseline_is_regression(self):
        cur = self.write("cur.json", bench_doc(100.0))
        base = self.write("base.json", bench_doc(0.0))
        code, _, _ = self.run_gate(cur, base)
        self.assertEqual(code, 1)

    def test_mixed_old_and_new_baseline_kernels(self):
        # A refreshed bench emits kernels an old baseline has never heard
        # of (bti.batch.evolve) and may drop retired ones.  Names present
        # in only one file are reported and skipped; the shared set is
        # still gated.
        cur = self.write("cur.json", {"kernels": [
            {"name": KERNEL, "ns_per_call": 120.0},
            {"name": "bti.batch.evolve", "ns_per_call": 50.0},
        ]})
        base = self.write("base.json", {"kernels": [
            {"name": KERNEL, "ns_per_call": 100.0},
            {"name": "retired.kernel", "ns_per_call": 10.0},
        ]})
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 0, out)
        self.assertIn("bti.batch.evolve: only in current -> SKIPPED", out)
        self.assertIn("retired.kernel: only in baseline -> SKIPPED", out)

    def test_shared_secondary_kernel_is_gated_too(self):
        cur = self.write("cur.json", {"kernels": [
            {"name": KERNEL, "ns_per_call": 100.0},
            {"name": "bti.batch.evolve", "ns_per_call": 500.0},
        ]})
        base = self.write("base.json", {"kernels": [
            {"name": KERNEL, "ns_per_call": 100.0},
            {"name": "bti.batch.evolve", "ns_per_call": 100.0},
        ]})
        code, out, _ = self.run_gate(cur, base)
        self.assertEqual(code, 1, out)
        self.assertIn("bti.batch.evolve", out)
        self.assertIn("REGRESSION", out)

    def test_population_speedup_floors(self):
        # The batch-engine speedup is a hard floor, not a ratio against
        # the baseline: below 5x the fused sweep has degenerated and no
        # noise allowance forgives it.
        base = self.write("base.json", bench_doc(100.0))
        ok = dict(bench_doc(100.0), population_speedup_exact=6.0)
        code, out, _ = self.run_gate(self.write("ok.json", ok), base)
        self.assertEqual(code, 0, out)
        self.assertIn("population_speedup_exact: 6.00x", out)
        slow = dict(bench_doc(100.0), population_speedup_exact=4.5)
        code, out, _ = self.run_gate(self.write("slow.json", slow), base)
        self.assertEqual(code, 1, out)
        self.assertIn("population_speedup_exact: 4.50x", out)
        self.assertIn("REGRESSION", out)
        # A run without the summary (old binary) is not penalized.
        code, _, _ = self.run_gate(self.write("bare.json", bench_doc(100.0)),
                                   base)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
