#!/usr/bin/env python3
"""ash-lint: determinism & physical-units static analysis for the ash lab.

The virtual lab's headline guarantee is bit-exact reproducibility: the same
seed must give the same campaign on any machine, any thread count, any
checkpoint/resume split.  Most regressions against that guarantee come from
a handful of recognisable source patterns, so we lint for them:

  wall-clock      Wall-clock/time sources (std::chrono::*_clock, time(),
                  gettimeofday, ...) in simulation code.  Simulated time is
                  the only clock the models may read; host time is allowed
                  only in the observability layer (src/obs/) and in bench
                  harness timers (bench/, tests/obs/).

  rng             Unseeded or global RNG: rand(), srand(), drand48(),
                  std::random_device.  All randomness must flow through
                  ash::Rng / derive_seed (src/util/.../random.h) so streams
                  are named, seeded and replayable.

  unordered-iter  Range-for over a std::unordered_{map,set} (or an alias of
                  one declared in the same file).  Unordered iteration order
                  is implementation-defined, so any result merged from such
                  a loop can differ across standard libraries; iterate a
                  sorted view or an ordered container instead.

  float-physics   `float` in physics code (src/bti, src/fpga, src/tb,
                  src/mc, src/core).  The models are calibrated in double
                  precision; a single-precision narrowing silently changes
                  trajectories.  The rule also polices exponentials: the
                  float-precision exp family (expf, exp2f, expm1f) and any
                  homebrew exponential approximation (a float/double
                  function named like quick_exp / exp_approx) are findings
                  in physics code *and* src/util.  The trap kernels are
                  bit-exact contracts, so every exponential there is
                  std::exp.

  raw-double-api  A function parameter spelled `double <name>_{s,v,k,c,hz}`
                  in a *public* section of a public header of the physics
                  modules (src/{bti,fpga,tb,mc}/include).  Unit-suffixed
                  quantities crossing a module boundary must use the strong
                  types from ash/util/units.h (Seconds, Volts, Kelvin,
                  Celsius, Hertz).  Private helpers, data members and return
                  values are out of scope (see DESIGN.md sec. 9).

  unchecked-io    A std::ofstream/std::fstream variable whose stream state
                  is never examined anywhere in the file: no `!s`, no
                  .fail()/.good()/.bad()/.is_open()/.rdstate(), no
                  .exceptions() arming, no boolean test.  A full disk or a
                  torn write then fails silently and the campaign "result"
                  is garbage; check the stream after writing, or go through
                  util::atomic_write_file which throws on short writes.
                  The heuristic is file-scoped by name, so a check of any
                  same-named stream in the file counts.

  eintr           A bare blocking syscall (::read, ::write, ::poll,
                  ::waitpid, ::accept/::accept4, ::connect, ::recv,
                  ::send, ::nanosleep) in src/fleet/, outside a
                  util::retry_eintr wrapper.  The fleet layer mixes slow
                  syscalls with real signals (SIGCHLD from dying workers,
                  SIGTERM during drain), so EINTR is routine there and a
                  bare call treats the spurious failure as a real one.
                  ::close is deliberately exempt: retrying close can close
                  a descriptor the kernel already reused.

  metric-name     A metric registered (.counter/.gauge/.histogram) under a
                  literal name outside `[a-z0-9_.]+`: dots namespace,
                  underscores separate words; anything else breaks the
                  scrape-prefix filter and the key=value dump grammar.
                  Additionally, *any* registration call inside one of the
                  instrumented hot-path kernel files (the ScopedKernelTimer
                  sites) is flagged: registration takes the registry mutex
                  per call — register once at setup and reuse the returned
                  reference.  Computed names elsewhere are skipped (they
                  are validated at runtime by what they render into).

Any finding can be suppressed on its line with a trailing
`// ash-lint: allow(<rule>): <reason>` (comma-separate several rules).
The reason is mandatory: a bare `allow(<rule>)` does not suppress — it is
itself reported, because an unexplained escape is unreviewable.

Exit status is 0 when no findings survive suppression, 1 when any
finding does, and 2 on usage/internal errors (bad --root, no files
matched, unknown flags).  `--json` emits machine-readable findings
for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, asdict

CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
DEFAULT_PATHS = ("src", "tools", "bench", "tests")

# The linter's own test fixtures intentionally violate every rule.
EXCLUDED_PARTS = ("lint/fixtures", "build")

ALLOW_RE = re.compile(
    r"ash-lint:\s*allow\(([a-z0-9_,\- ]+)\)(\s*:\s*(\S.*))?")

RULES = (
    "wall-clock",
    "rng",
    "unordered-iter",
    "float-physics",
    "raw-double-api",
    "unchecked-io",
    "eintr",
    "metric-name",
)


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    snippet: str


def strip_code(text: str) -> str:
    """Blank out comments, string and char literals, preserving line layout.

    Replaced characters become spaces so that line/column arithmetic on the
    result still maps onto the original file.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_rules(source_line: str) -> tuple[set[str], bool]:
    """Rules named by an allow() escape on the line, and whether the
    escape carries the mandatory `: <reason>` tail."""
    m = ALLOW_RE.search(source_line)
    if not m:
        return set(), False
    rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return rules, bool(m.group(3))


class FileLint:
    """Per-file context shared by all rules."""

    def __init__(self, path: str, rel: str, text: str):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.text = text
        self.code = strip_code(text)
        self.lines = text.split("\n")
        self.code_lines = self.code.split("\n")
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []

    def report(self, rule: str, line_no: int, message: str) -> None:
        src = self.lines[line_no - 1] if line_no - 1 < len(self.lines) else ""
        f = Finding(rule, self.rel, line_no, message, src.strip()[:160])
        rules, has_reason = allowed_rules(src)
        if rule in rules:
            if has_reason:
                self.suppressed.append(f)
                return
            f = Finding(
                rule, self.rel, line_no,
                f"suppression escape for '{rule}' carries no reason: "
                f"write `// ash-lint: allow({rule}): <why>` — an "
                "unexplained escape is unreviewable",
                src.strip()[:160])
        self.findings.append(f)


# --------------------------------------------------------------------------
# Rule: wall-clock
# --------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = (
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "std::chrono clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])std::time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
)

# src/fleet/ is process supervision: heartbeat deadlines and restart
# backoffs pace real worker processes, so host time is the correct clock
# there.  Nothing in fleet feeds the simulated physics (the payload
# determinism tests pin that).
WALL_CLOCK_ALLOWED_PREFIXES = ("src/obs/", "src/fleet/", "bench/",
                               "tests/obs/")


def rule_wall_clock(fl: FileLint) -> None:
    if fl.rel.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
        return
    for no, line in enumerate(fl.code_lines, start=1):
        for pat, what in WALL_CLOCK_PATTERNS:
            if pat.search(line):
                fl.report(
                    "wall-clock", no,
                    f"{what} in simulation code: models must use simulated "
                    "time (obs::set_sim_now / phase clocks), not host time")
                break


# --------------------------------------------------------------------------
# Rule: rng
# --------------------------------------------------------------------------

RNG_PATTERNS = (
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"std::random_device"), "std::random_device"),
)

RNG_ALLOWED_PREFIXES = ("src/util/",)


def rule_rng(fl: FileLint) -> None:
    if fl.rel.startswith(RNG_ALLOWED_PREFIXES):
        return
    for no, line in enumerate(fl.code_lines, start=1):
        for pat, what in RNG_PATTERNS:
            if pat.search(line):
                fl.report(
                    "rng", no,
                    f"{what}: all randomness must come from ash::Rng with a "
                    "seed derived via derive_seed (see ash/util/random.h)")
                break


# --------------------------------------------------------------------------
# Rule: unordered-iter
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>[&\s]+(\w+)\s*[;={(]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;]*)\)\s*[{]?")


def rule_unordered_iter(fl: FileLint) -> None:
    # Names (variables and type aliases) known to be unordered in this file.
    unordered_vars: set[str] = set()
    alias_types: set[str] = set()
    for line in fl.code_lines:
        m = UNORDERED_DECL_RE.search(line)
        if m:
            unordered_vars.add(m.group(1))
        m = UNORDERED_ALIAS_RE.search(line)
        if m:
            alias_types.add(m.group(1))
    alias_decl_res = [
        re.compile(r"\b" + re.escape(t) + r"[&\s]+(\w+)\s*[;={(]")
        for t in alias_types
    ]
    for line in fl.code_lines:
        for pat in alias_decl_res:
            m = pat.search(line)
            if m:
                unordered_vars.add(m.group(1))

    for no, line in enumerate(fl.code_lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group(2).strip()
        tail = range_expr.split(".")[-1].split("->")[-1]
        tail_name = re.match(r"(\w+)", tail)
        direct_unordered = "unordered_" in range_expr
        if direct_unordered or (tail_name and tail_name.group(1)
                                in unordered_vars):
            fl.report(
                "unordered-iter", no,
                f"range-for over unordered container '{range_expr}': "
                "iteration order is implementation-defined; iterate a "
                "sorted view or an ordered container when results merge")


# --------------------------------------------------------------------------
# Rule: float-physics
# --------------------------------------------------------------------------

FLOAT_RE = re.compile(r"(?<![\w.])float\b")
PHYSICS_PREFIXES = ("src/bti/", "src/fpga/", "src/tb/", "src/mc/",
                    "src/core/")

# The exponential half of the rule: float-precision exp family calls, and
# definitions of an approximate exponential.
EXPF_CALL_RE = re.compile(
    r"(?<![\w.])(?:std::)?(expf|exp2f|expm1f|exp10f)\s*\(")
APPROX_EXP_DEF_RE = re.compile(
    r"\b(?:float|double)\s+"
    r"(\w*(?:fast|approx|quick|cheap)\w*?exp\w*|\w*exp\w*(?:approx|fast)\w*)"
    r"\s*\(")
EXP_SCOPE_PREFIXES = PHYSICS_PREFIXES + ("src/util/",)


def rule_float_physics(fl: FileLint) -> None:
    in_physics = fl.rel.startswith(PHYSICS_PREFIXES)
    in_exp_scope = fl.rel.startswith(EXP_SCOPE_PREFIXES)
    if not in_exp_scope:
        return
    for no, line in enumerate(fl.code_lines, start=1):
        if in_physics and FLOAT_RE.search(line):
            fl.report(
                "float-physics", no,
                "float in a physics path: the models are calibrated in "
                "double precision; use double (or a units.h strong type)")
        m = EXPF_CALL_RE.search(line)
        if m:
            fl.report(
                "float-physics", no,
                f"{m.group(1)} is a single-precision exponential; use "
                "std::exp")
        m = APPROX_EXP_DEF_RE.search(line)
        if m:
            fl.report(
                "float-physics", no,
                f"'{m.group(1)}' looks like a homebrew approximate "
                "exponential; physics and util code use std::exp")


# --------------------------------------------------------------------------
# Rule: raw-double-api
# --------------------------------------------------------------------------

PUBLIC_HEADER_RE = re.compile(r"src/(bti|fpga|tb|mc)/include/.*\.h$")
RAW_DOUBLE_PARAM_RE = re.compile(r"\bdouble\s+(\w+_(?:s|v|k|c|hz))\b")
UNIT_TYPE_FOR_SUFFIX = {
    "s": "Seconds",
    "v": "Volts",
    "k": "Kelvin",
    "c": "Celsius",
    "hz": "Hertz",
}


def rule_raw_double_api(fl: FileLint) -> None:
    if not PUBLIC_HEADER_RE.search(fl.rel):
        return

    # Walk the stripped code, tracking (a) whether we are inside a
    # parameter list (paren depth > 0 immediately after an identifier) and
    # (b) the current access level of the innermost class/struct.
    #
    # scope_stack holds one entry per open brace: "class:<access>",
    # "struct:<access>" or "other".
    scope_stack: list[list[str]] = []
    pending: str | None = None  # class/struct seen, brace not yet opened
    paren_depth = 0

    def current_access() -> str:
        for entry in reversed(scope_stack):
            if entry[0] in ("class", "struct"):
                return entry[1]
        return "public"  # namespace scope: free functions are public API

    code = fl.code
    line_no = 1
    i = 0
    n = len(code)
    access_re = re.compile(r"\b(public|protected|private)\s*:")
    class_re = re.compile(r"\b(class|struct)\s+(\w+)")

    # Pre-scan each line for access specifiers / class heads, then walk
    # braces and parens character by character on the same line.
    for raw_line in fl.code_lines:
        cm = class_re.search(raw_line)
        if cm and ";" not in raw_line[cm.end():].split("{")[0]:
            pending = cm.group(1)
        am = access_re.search(raw_line)
        if am:
            for entry in reversed(scope_stack):
                if entry[0] in ("class", "struct"):
                    entry[1] = am.group(1)
                    break

        for col, ch in enumerate(raw_line):
            if ch == "{":
                if pending is not None:
                    scope_stack.append(
                        [pending,
                         "private" if pending == "class" else "public"])
                    pending = None
                else:
                    scope_stack.append(["other", ""])
            elif ch == "}":
                if scope_stack:
                    scope_stack.pop()
            elif ch == "(":
                paren_depth += 1
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            elif ch == "d" and paren_depth > 0:
                m = RAW_DOUBLE_PARAM_RE.match(raw_line, col)
                if m and current_access() == "public":
                    suffix = m.group(1).rsplit("_", 1)[1]
                    want = UNIT_TYPE_FOR_SUFFIX[suffix]
                    fl.report(
                        "raw-double-api", line_no,
                        f"parameter 'double {m.group(1)}' on a public API: "
                        f"use ash::{want} from ash/util/units.h so the unit "
                        "is part of the type")
        line_no += 1


# --------------------------------------------------------------------------
# Rule: unchecked-io
# --------------------------------------------------------------------------

# Write-capable file streams only: ostringstream cannot fail meaningfully
# and ifstream misuse shows up as parse failures downstream.
WRITE_STREAM_DECL_RE = re.compile(r"\bstd::o?fstream\s+(\w+)\s*[({]")
STATE_CHECK_TEMPLATES = (
    r"!\s*{n}\b",                                              # if (!os)
    r"\b{n}\s*\.\s*(?:fail|good|bad|is_open|rdstate|exceptions)\s*\(",
    r"\b(?:if|while)\s*\(\s*{n}\s*[)&|]",                      # if (os) ...
)


def rule_unchecked_io(fl: FileLint) -> None:
    for no, line in enumerate(fl.code_lines, start=1):
        m = WRITE_STREAM_DECL_RE.search(line)
        if not m:
            continue
        name = re.escape(m.group(1))
        if any(re.search(t.format(n=name), fl.code)
               for t in STATE_CHECK_TEMPLATES):
            continue
        fl.report(
            "unchecked-io", no,
            f"write stream '{m.group(1)}' is never state-checked: a full "
            "disk or torn write fails silently; test the stream after "
            f"writing (e.g. `if (!{m.group(1)})`) or use "
            "util::atomic_write_file")


# --------------------------------------------------------------------------
# Rule: eintr
# --------------------------------------------------------------------------

EINTR_SYSCALL_RE = re.compile(
    r"::(read|write|poll|waitpid|accept4?|connect|recv|send|nanosleep)\s*\(")

# The process/socket layer is the one place slow syscalls meet real
# signals; everywhere else the repo stays on C++ iostream/filesystem APIs.
EINTR_SCOPED_PREFIXES = ("src/fleet/",)


def rule_eintr(fl: FileLint) -> None:
    if not fl.rel.startswith(EINTR_SCOPED_PREFIXES):
        return
    for no, line in enumerate(fl.code_lines, start=1):
        m = EINTR_SYSCALL_RE.search(line)
        if not m:
            continue
        # The wrapper and the call usually share a line; clang-format may
        # push the lambda body one or two lines down.
        window = fl.code_lines[max(0, no - 3):no]
        if any("retry_eintr" in w for w in window):
            continue
        fl.report(
            "eintr", no,
            f"bare ::{m.group(1)}() can fail spuriously with EINTR when a "
            "signal lands (SIGCHLD from a dying worker, SIGTERM during "
            "drain); wrap the call in util::retry_eintr "
            "(ash/util/syscall.h).  ::close stays bare by design")


# --------------------------------------------------------------------------
# Rule: metric-name
# --------------------------------------------------------------------------

METRIC_REG_RE = re.compile(r"[\w)\]>]\s*\.\s*(counter|gauge|histogram)\s*\(")
METRIC_LITERAL_RE = re.compile(
    r"\.\s*(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_OK_RE = re.compile(r"^[a-z0-9_.]+$")

# The ScopedKernelTimer sites: per-sample hot paths whose cost is exactly
# what the profiler measures.  A registration there takes the registry
# mutex inside the timed region — register at setup, dereference in the
# kernel (see fleet::Service's latency_ array for the pattern).
METRIC_HOT_KERNEL_FILES = (
    "src/bti/trap_ensemble.cpp",
    "src/fpga/ring_oscillator.cpp",
    "src/tb/experiment_runner.cpp",
    "src/mc/system.cpp",
)


def rule_metric_name(fl: FileLint) -> None:
    hot = fl.rel in METRIC_HOT_KERNEL_FILES
    for no, line in enumerate(fl.code_lines, start=1):
        m = METRIC_REG_RE.search(line)
        if not m:
            continue
        if hot:
            fl.report(
                "metric-name", no,
                f".{m.group(1)}() inside an instrumented hot-path kernel: "
                "registration locks the registry mutex per call and bills "
                "the kernel being profiled; register once at setup and "
                "reuse the returned reference")
            continue
        src = fl.lines[no - 1] if no - 1 < len(fl.lines) else ""
        lm = METRIC_LITERAL_RE.search(src)
        if not lm:
            continue  # computed name: validated by what it renders into
        name = lm.group(1)
        if not METRIC_NAME_OK_RE.match(name):
            fl.report(
                "metric-name", no,
                f"metric name \"{name}\" violates [a-z0-9_.]+: dots "
                "namespace, underscores separate words; anything else "
                "breaks the scrape-prefix filter and the key=value dump "
                "grammar")


RULE_FUNCS = {
    "wall-clock": rule_wall_clock,
    "rng": rule_rng,
    "unordered-iter": rule_unordered_iter,
    "float-physics": rule_float_physics,
    "raw-double-api": rule_raw_double_api,
    "unchecked-io": rule_unchecked_io,
    "eintr": rule_eintr,
    "metric-name": rule_metric_name,
}


def lint_file(path: str, rel: str, rules) -> FileLint:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    fl = FileLint(path, rel, text)
    for rule in rules:
        RULE_FUNCS[rule](fl)
    return fl


def iter_source_files(root: str, paths):
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            yield full, os.path.relpath(full, root)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(part in f"{rel_dir}/{d}" for part in EXCLUDED_PARTS))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    p = os.path.join(dirpath, name)
                    yield p, os.path.relpath(p, root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ash_lint",
        description="determinism & units static analysis for the ash lab")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories relative to --root "
                        f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only the named rule(s)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    if not os.path.isdir(args.root):
        print(f"ash_lint: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2

    rules = args.rule if args.rule else list(RULES)
    findings: list[Finding] = []
    suppressed = 0
    files = 0
    for path, rel in iter_source_files(args.root, args.paths):
        files += 1
        fl = lint_file(path, rel, rules)
        findings.extend(fl.findings)
        suppressed += len(fl.suppressed)

    if files == 0:
        print("ash_lint: no source files matched", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.json:
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        print(json.dumps({
            "findings": [asdict(f) for f in findings],
            "counts": counts,
            "files_scanned": files,
            "suppressed": suppressed,
        }, indent=2))
    else:
        for f in findings:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
            if f.snippet:
                print(f"    {f.snippet}")
        tail = f"{files} files scanned, {len(findings)} finding(s)"
        if suppressed:
            tail += f", {suppressed} suppressed"
        print(tail, file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
