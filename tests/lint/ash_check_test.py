#!/usr/bin/env python3
"""Self-tests for tools/ash_check.py.

Every check has fixture cases under tests/lint/fixtures/: a positive file
that must produce that check's findings, a suppressed file whose violation
carries a full `ash-check: allow(check): <reason>` escape, a clean file
that must produce nothing and, where one exists, a bare file whose escape
omits the mandatory reason (and therefore still reports).  The fixtures
mirror the repo layout where a check is path-scoped; the protocol
checker's fixtures are whole mini-repo roots, since it cross-checks
protocol.h, protocol.cpp and tests/fleet/.  The suite also asserts that
the real tree scans to zero findings over the default scope, and covers
the exit status contract: 0 clean, 1 findings, 2 usage/internal errors.

Run directly for every case, or name test classes to run a subset.
ctest (`ctest -L lint`) registers TokenRuleTest (wall-clock, rng,
unordered-iter, float-physics, unchecked-io, eintr, metric-name) as
lint_ash_lint_selftest and the other classes as lint_ash_check_selftest.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CHECK = os.path.join(REPO, "tools", "ash_check.py")
FIXTURES = os.path.join(HERE, "fixtures")

CPP_DIRS = ["src", "tools", "bench", "tests", "examples", "perfbench"]

# test name -> (check, fixture dir, case directory inside it, extension,
#               minimum positive findings, whether a bare case exists)
CASES = {
    "wall_clock": ("wall-clock", "wall_clock", "", ".cpp", 1, True),
    "rng": ("rng", "rng", "", ".cpp", 1, True),
    "unordered_iter": ("unordered-iter", "unordered_iter", "", ".cpp", 1,
                       True),
    "float_physics": ("float-physics", "float_physics", "src/bti", ".cpp",
                      1, True),
    "unchecked_io": ("unchecked-io", "unchecked_io", "", ".cpp", 1, True),
    "eintr": ("eintr", "eintr", "src/fleet", ".cpp", 1, True),
    "metric_name": ("metric-name", "metric_name", "", ".cpp", 1, True),
    # printf via a callee plus operator new in the handler itself.
    "signal_safety": ("signal-safety", "signal_safety", "", ".cpp", 2,
                      False),
    # static local + file-scope global + non-util RNG.
    "shard_purity": ("shard-purity", "shard_purity", "", ".cpp", 3, False),
    # double member + vector<double> member + double return; unit-flow
    # only looks under src/.
    "unit_flow": ("unit-flow", "unit_flow", "src", ".h", 3, True),
    # The parameter half: public sections of the physics modules' public
    # headers (a free function and a public method).
    "unit_flow_params": ("unit-flow", "unit_flow", "src/bti/include", ".h",
                         2, True),
}


def run_check(root, paths, check=None):
    cmd = [sys.executable, CHECK, "--root", root, "--json"]
    if check:
        cmd += ["--check", check]
    proc = subprocess.run(cmd + list(paths), capture_output=True, text=True)
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        raise AssertionError(
            f"ash_check did not emit JSON: {err}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc.returncode, payload


def run_cli(*args):
    return subprocess.run([sys.executable, CHECK, *args],
                          capture_output=True, text=True)


class FixtureTest(unittest.TestCase):
    """Assertions over a check's fixture cases; subclasses get one test
    per case of the CASES entries they name."""

    def run_case(self, name, case):
        check, subdir, scope, ext, _, _ = CASES[name]
        rel = os.path.join(scope, case + ext)
        root = os.path.join(FIXTURES, subdir)
        self.assertTrue(os.path.isfile(os.path.join(root, rel)),
                        f"missing fixture {subdir}/{rel}")
        return run_check(root, [rel], check)

    def assert_positive(self, name):
        check, min_findings = CASES[name][0], CASES[name][4]
        code, payload = self.run_case(name, "positive")
        self.assertEqual(code, 1, payload)
        self.assertEqual(payload["suppressed"], 0, payload)
        self.assertGreaterEqual(len(payload["findings"]), min_findings,
                                payload)
        for f in payload["findings"]:
            self.assertEqual(f["check"], check)
            self.assertGreater(f["line"], 0)
            self.assertTrue(f["message"])

    def assert_suppressed(self, name):
        code, payload = self.run_case(name, "suppressed")
        self.assertEqual(code, 0, payload)
        self.assertEqual(payload["findings"], [])
        self.assertGreater(payload["suppressed"], 0, payload)

    def assert_clean(self, name):
        code, payload = self.run_case(name, "clean")
        self.assertEqual(code, 0, payload)
        self.assertEqual(payload["findings"], [])
        self.assertEqual(payload["suppressed"], 0, payload)

    def assert_bare(self, name):
        # An allow() escape without a `: <reason>` tail does not
        # suppress; the finding it reports names the missing reason.
        code, payload = self.run_case(name, "bare")
        self.assertEqual(code, 1, payload)
        self.assertEqual(payload["suppressed"], 0, payload)
        self.assertTrue(any("carries no reason" in f["message"]
                            for f in payload["findings"]), payload)

    def assert_one(self, subdir, rel, check, text):
        root = os.path.join(FIXTURES, subdir)
        self.assertTrue(os.path.isfile(os.path.join(root, rel)))
        code, payload = run_check(root, [rel], check)
        self.assertEqual(code, 1)
        self.assertEqual(len(payload["findings"]), 1, payload)
        self.assertIn(text, payload["findings"][0]["message"])


def _add_cases(cls, names):
    for name in names:
        kinds = ["positive", "suppressed", "clean"] + (["bare"]
                                                       if CASES[name][5]
                                                       else [])
        for kind in kinds:
            assert_case = getattr(FixtureTest, f"assert_{kind}")
            setattr(cls, f"test_{name}_{kind}",
                    lambda self, a=assert_case, n=name: a(self, n))


class TokenRuleTest(FixtureTest):
    """The line-level token rules."""

    def test_hot_kernel_registration(self):
        # metric-name's second half: any registration in an instrumented
        # hot-path kernel file is a finding, even a well-named one.
        self.assert_one("metric_name", os.path.join("src", "mc", "system.cpp"),
                        "metric-name", "hot-path")

    def test_homebrew_exponential_in_util_is_flagged(self):
        # float-physics' exponential half reaches src/util (where one would
        # most plausibly appear), not just the physics modules.
        self.assert_one("float_physics",
                        os.path.join("src", "util", "homebrew.cpp"),
                        "float-physics", "homebrew approximate exponential")


class StructuralCheckTest(FixtureTest):
    """The checks that read declarations and call graphs."""


TOKEN_RULE_CASES = ["wall_clock", "rng", "unordered_iter", "float_physics",
                    "unchecked_io", "eintr", "metric_name"]
_add_cases(TokenRuleTest, TOKEN_RULE_CASES)
_add_cases(StructuralCheckTest,
           [n for n in CASES if n not in TOKEN_RULE_CASES])


class ProtocolCheckerTest(unittest.TestCase):
    """protocol-exhaustiveness cross-checks a whole mini-repo root."""

    def run_root(self, case):
        root = os.path.join(FIXTURES, "protocol_exhaustiveness", case)
        self.assertTrue(os.path.isdir(root), f"missing fixture root {case}")
        return run_check(root, ["src"], "protocol-exhaustiveness")

    def test_positive(self):
        code, payload = self.run_root("positive")
        self.assertEqual(code, 1, payload)
        messages = [f["message"] for f in payload["findings"]]
        self.assertTrue(any("kEchoResponse" in m and "codec" in m
                            for m in messages), messages)
        self.assertTrue(any("kHostileLength" in m for m in messages),
                        messages)

    def test_suppressed(self):
        code, payload = self.run_root("suppressed")
        self.assertEqual(code, 0, payload)
        self.assertEqual(payload["findings"], [])
        self.assertGreaterEqual(payload["suppressed"], 2, payload)

    def test_clean(self):
        code, payload = self.run_root("clean")
        self.assertEqual(code, 0, payload)
        self.assertEqual(payload["findings"], [])
        self.assertEqual(payload["suppressed"], 0, payload)


class WholeRepoTest(unittest.TestCase):
    """The real tree must be finding-free — CI enforces the same."""

    def test_repo_is_clean(self):
        code, payload = run_check(REPO, [])
        self.assertEqual(
            payload["findings"], [],
            "ash_check findings on the tree:\n" +
            "\n".join(f"{f['path']}:{f['line']}: [{f['check']}] "
                      f"{f['message']}" for f in payload["findings"]))
        self.assertEqual(code, 0)
        # The default scope is every C++ directory.
        _, explicit = run_check(REPO, CPP_DIRS)
        self.assertEqual(payload["files_scanned"], explicit["files_scanned"])
        self.assertGreater(payload["files_scanned"], 240)

    def test_list_checks(self):
        proc = run_cli("--list-checks")
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["wall-clock", "rng", "unordered-iter", "float-physics",
             "unchecked-io", "eintr", "metric-name", "signal-safety",
             "shard-purity", "unit-flow", "protocol-exhaustiveness"])


class ExitCodeTest(unittest.TestCase):
    """Exit status contract: 0 clean, 1 findings, 2 usage/internal
    errors — CI must tell \"dirty tree\" from \"broken tool\"."""

    def test_findings_exit_one(self):
        proc = run_cli("--root", os.path.join(FIXTURES, "rng"),
                       "positive.cpp")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_clean_exit_zero(self):
        proc = run_cli("--root", os.path.join(FIXTURES, "rng"), "clean.cpp")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_bad_root_exit_two(self):
        proc = run_cli("--root", "/nonexistent/xyzzy")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("not a directory", proc.stderr)

    def test_no_files_matched_exit_two(self):
        proc = run_cli("--root", os.path.join(FIXTURES, "rng"),
                       "no_such_subdir")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no source files matched", proc.stderr)

    def test_unknown_check_exit_two(self):
        proc = run_cli("--check", "bogus")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
