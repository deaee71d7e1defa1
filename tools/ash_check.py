#!/usr/bin/env python3
"""ash-check: the ash lab's static analyzer.

The virtual lab's headline guarantee is bit-exact reproducibility: the same
seed must give the same campaign on any machine, any thread count, any
checkpoint/resume split.  Most regressions against that guarantee come from
a handful of recognisable source patterns, and the rest from call-graph and
declaration-level invariants.  Token rules run line patterns over source
whose comments and string literals are blanked first:

  wall-clock      Wall-clock/time sources (std::chrono::*_clock, time(),
                  gettimeofday, ...) in simulation code.  Simulated time is
                  the only clock the models may read; host time is allowed
                  only in the observability layer (src/obs/), in fleet
                  process supervision (src/fleet/) and in benchmark
                  harness timers (bench/, perfbench/, tests/obs/).

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

Semantic rules run over a self-contained declaration/call-graph parser:

  signal-safety
      Every function reachable from a registered fatal-signal handler
      (`sa_handler = f`, `std::signal(SIG..., f)`) must be on the
      async-signal-safe allowlist: the POSIX AS-safe syscall set plus the
      pinned, separately-audited project functions
      (obs::FlightRecorder::record / write_fd — byte-identity and
      torn-dump tests own their safety proof).  Reaching `malloc`, any
      iostream, a mutex, `throw` or `new` on that path is a finding: a
      handler that allocates can deadlock on the heap lock of the very
      thread it interrupted.

  shard-purity
      A lambda handed to `util::ThreadPool::parallel_for` (and the
      project functions it calls, traversed to a bounded depth) must not
      touch file-scope mutable globals, non-const static locals, `errno`
      or errno-latching calls (strtod family, strerror), or non-util RNG
      (rand, drand48, std::random_device, std::mt19937, ...).  This
      mechanizes the "bit-identical at any thread count" guarantee:
      shard bodies may only write state they own by index.

  unit-flow
      A suffix-named raw double (`_s`, `_v`, `_k`, `_c`, `_hz`) appearing
      as a *public* struct/class data member (`double x_v;`,
      `std::vector<double> periods_s;`) or as the return type of a
      suffix-named function (`double period_s(...)`) anywhere under
      `src/` is a finding, and so is a parameter spelled
      `double <name>_{s,v,k,c,hz}` in a *public* section of the physics
      modules' public headers (src/{bti,fpga,tb,mc}/include): quantities
      crossing a declaration boundary must use the strong types from
      ash/util/units.h.  `_per_` rate names are exempt.

  protocol-exhaustiveness
      Every `fleet::MessageType` enumerator must have a payload codec
      struct in protocol.h, a to_string classification in protocol.cpp,
      and a test under tests/fleet/ referencing it; every
      `fleet::ProtocolViolation` must be classified in protocol.cpp and
      exercised by a hostile-input test.  Each struct's encode()/parse()
      is a call into the one field-table codec, and the golden frame test
      calls both for every type, so a missing definition fails the link.

The parser resolves calls by name, not by overload: its call graph is an
over-approximation, and it does not see through function pointers other
than the signal-registration idioms above (see DESIGN.md Sec. 14 for the
full limits).

Any finding can be suppressed on its line with a trailing
`// ash-check: allow(<rule>): <reason>` (comma-separate several rules).
The reason is mandatory: a bare `allow(<rule>)` does not suppress — it is
itself reported, because an unexplained escape is unreviewable.

The default scope is every C++ directory: src tools bench tests examples
perfbench.  Exit status: 0 clean, 1 findings, 2 usage or internal errors
(bad --root, no files matched, unknown flags).  `--json` emits
machine-readable findings for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, asdict

CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
DEFAULT_PATHS = ("src", "tools", "bench", "tests", "examples", "perfbench")

# The analyzer's own test fixtures intentionally violate every rule.
EXCLUDED_PARTS = ("lint/fixtures", "build")

ALLOW_RE = re.compile(
    r"ash-check:\s*allow\(([a-z0-9_,\- ]+)\)(\s*:\s*(\S.*))?")

# ---------------------------------------------------------------------------
# Findings & suppression
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    check: str
    path: str
    line: int
    message: str
    snippet: str


class Report:
    def __init__(self):
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        self._seen: set = set()

    def add(self, check: str, sf: "SourceFile", line: int,
            message: str) -> None:
        key = (check, sf.rel, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        source_line = sf.source_line(line)
        snippet = source_line.strip()[:160]
        m = ALLOW_RE.search(source_line)
        if m and check in {r.strip() for r in m.group(1).split(",")}:
            if m.group(3):
                self.suppressed.append(
                    Finding(check, sf.rel, line, message, snippet))
                return
            message = (f"suppression escape for '{check}' carries no "
                       f"reason: write `// ash-check: allow({check}): <why>`"
                       " — an unexplained escape is unreviewable")
        self.findings.append(Finding(check, sf.rel, line, message, snippet))


# ---------------------------------------------------------------------------
# Lexer & parser
# ---------------------------------------------------------------------------


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


CONTROL_KEYWORDS = frozenset(
    "if for while switch catch return do else new delete throw sizeof "
    "alignof decltype static_assert case goto co_await co_return "
    "co_yield".split())

CALL_RE = re.compile(r"(?<!\w)([A-Za-z_~][\w]*(?:::[\w~]+)*)\s*\(")
ACCESS_RE = re.compile(r"\b(public|protected|private)\s*:(?!:)")
PREPROC_RE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)

MEMBER_DOUBLE_RE = re.compile(
    r"(?:^|[;{}:\s])double\s+(\w+_(?:s|v|k|c|hz))\s*(?:=[^;]*)?;")
MEMBER_VECTOR_RE = re.compile(
    r"(?:^|[;{}:\s])std::vector<\s*double\s*>\s+(\w+_(?:s|v|k|c|hz))"
    r"\s*(?:=[^;]*)?;")
RETURN_DOUBLE_RE = re.compile(
    r"(?:^|[;{}:\s])(?:virtual\s+|static\s+|constexpr\s+|inline\s+)*"
    r"double\s+((?:\w+::)*\w+_(?:s|v|k|c|hz))\s*\(")
PARAM_DOUBLE_RE = re.compile(r"\bdouble\s+(\w+_(?:s|v|k|c|hz))\b")

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:volatile\s+)?(?:struct\s+|class\s+)?[\w:<>,\*&\s]+?"
    r"[\s\*&](\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^;]*)?;\s*$")
GLOBAL_SKIP_RE = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|namespace|return|"
    r"friend|template|extern|enum|atomic|thread_local)\b|[()]")

STATIC_LOCAL_RE = re.compile(
    r"(?<!\w)static\s+(?!const\b|constexpr\b)[\w:<>,\s\*&]+?[\s\*&]"
    r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^;{]*)?[;{]")

HANDLER_ASSIGN_RE = re.compile(r"\.\s*sa_handler\s*=\s*(\w+)")
SIGNAL_CALL_RE = re.compile(r"\bsignal\s*\(\s*SIG\w+\s*,\s*&?\s*([\w:]+)")

LAMBDA_START_RE = re.compile(r"\[[^\]]*\]\s*(?:\([^)]*\))?\s*(?:mutable\s*)?"
                             r"(?:->\s*[\w:<>]+\s*)?\{")


@dataclass
class Func:
    name: str            # simple name ("handle_fatal", "apply_members")
    qualified: str       # as written in the head ("BatchEnsemble::evolve")
    rel: str
    line: int
    body: str            # stripped body text, braces excluded
    body_line: int       # line number of the opening brace


@dataclass
class Member:
    name: str
    rel: str
    line: int
    kind: str            # "double" | "vector<double>"
    owner: str           # enclosing class/struct name


@dataclass
class EnumDef:
    name: str
    rel: str
    enumerators: list  # (name, line)


def api_visible(scopes: list) -> bool:
    """Whether a declaration at the innermost scope is public API: namespace
    scope, or a public section of an exposed class, never a block."""
    for s in reversed(scopes):
        if s[0] == "class":
            return s[2] == "public" and s[3]
        if s[0] == "block":
            return False
    return True


class SourceFile:
    """One parsed translation unit or header."""

    def __init__(self, path: str, rel: str):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        # Token rules read the stripped text; the parser additionally
        # blanks preprocessor lines, whose parentheses and angle brackets
        # would otherwise confuse statement chunking.
        self.stripped = strip_code(self.text)
        self.stripped_lines = self.stripped.split("\n")
        self.code = PREPROC_RE.sub(lambda m: " " * len(m.group(0)),
                                   self.stripped)
        self.lines = self.text.split("\n")
        self.functions: list[Func] = []
        self.members: list[Member] = []
        self.return_decls: list = []      # (name, line)
        self.params: list = []            # (name, line), public API only
        self.enums: list[EnumDef] = []
        self.globals: dict[str, int] = {}  # mutable file-scope name -> line
        self._parse()

    def source_line(self, line_no: int) -> str:
        if 1 <= line_no <= len(self.lines):
            return self.lines[line_no - 1]
        return ""

    def _line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1

    # -- statement-oriented scanner ------------------------------------

    def _parse(self) -> None:
        code = self.code
        n = len(code)
        i = 0
        chunk_start = 0
        # scope stack entries: ["namespace"|"class"|"block", name, access,
        # exposed]
        scopes: list[list] = []

        while i < n:
            ch = code[i]
            if ch == ";":
                self._statement(code[chunk_start:i + 1], chunk_start, scopes)
                chunk_start = i + 1
            elif ch == "{":
                head = code[chunk_start:i]
                kind = self._classify_head(head)
                if kind[0] == "enum":
                    end = self._match_brace(i)
                    self._collect_enum(kind[1], code[i + 1:end], i + 1)
                    i = code.find(";", end)
                    if i < 0:
                        break
                    chunk_start = i + 1
                elif kind[0] == "function":
                    end = self._match_brace(i)
                    self._flush_access(head, scopes)
                    self.functions.append(
                        Func(kind[1].split("::")[-1], kind[1], self.rel,
                             self._line_of(chunk_start + kind[2]),
                             code[i + 1:end], self._line_of(i)))
                    # A suffix-named double-returning *definition* also
                    # counts for unit-flow (headers with inline bodies).
                    self._head_return_decl(head, chunk_start)
                    if api_visible(scopes):
                        self._collect_params(head, chunk_start)
                    i = end
                    chunk_start = i + 1
                elif kind[0] == "namespace":
                    scopes.append(["namespace", kind[1], "public", True])
                    chunk_start = i + 1
                elif kind[0] == "class":
                    self._flush_access(head, scopes)
                    default = "private" if kind[2] == "class" else "public"
                    # A nested type declared in a non-public section is
                    # not API surface, nor is anything declared inside a
                    # function/initializer block.
                    exposed = True
                    if scopes:
                        top = scopes[-1]
                        if top[0] == "class":
                            exposed = top[2] == "public" and top[3]
                        elif top[0] == "block":
                            exposed = False
                    scopes.append(["class", kind[1], default, exposed])
                    chunk_start = i + 1
                else:
                    # brace-init, array initializer, lambda at file scope,
                    # extern "C" block...: treat as a transparent block.
                    scopes.append(["block", "", "public", False])
                    chunk_start = i + 1
            elif ch == "}":
                self._statement(code[chunk_start:i], chunk_start, scopes)
                if scopes:
                    scopes.pop()
                chunk_start = i + 1
                if i + 1 < n and code[i + 1] == ";":
                    chunk_start = i + 2
                    i += 1
            i += 1

    def _match_brace(self, open_at: int) -> int:
        depth = 0
        for j in range(open_at, len(self.code)):
            c = self.code[j]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return j
        return len(self.code) - 1

    def _classify_head(self, head: str):
        """Classify the text between the previous statement boundary and
        an opening brace."""
        # Trailing access labels belong to the class body, not the head.
        m = re.search(r"\bnamespace(\s+([\w:]+))?\s*$", head)
        if m:
            return ("namespace", m.group(2) or "<anon>")
        m = re.search(r"\benum\s+(?:class\s+|struct\s+)?(\w+)"
                      r"(?:\s*:\s*[\w:\s]+)?\s*$", head)
        if m:
            return ("enum", m.group(1))
        m = re.search(r"\b(class|struct|union)\s+(?:\[\[\w+\]\]\s*)?(\w+)"
                      r"(?:\s+final)?(?:\s*:\s*[^;{]*)?\s*$", head)
        if m and "(" not in head[m.end():]:
            return ("class", m.group(2), m.group(1))
        # Function definition: a call-ish pattern whose name is not a
        # control keyword, with balanced parens, not an assignment RHS.
        best = None
        for cm in CALL_RE.finditer(head):
            name = cm.group(1)
            if name.split("::")[-1] in CONTROL_KEYWORDS:
                continue
            best = (cm.group(1), cm.start(1))
        if best and "=" not in head.split("(")[0]:
            return ("function", best[0], best[1])
        return ("other",)

    def _flush_access(self, text: str, scopes: list) -> None:
        for am in ACCESS_RE.finditer(text):
            for s in reversed(scopes):
                if s[0] == "class":
                    s[2] = am.group(1)
                    break

    def _statement(self, stmt: str, offset: int, scopes: list) -> None:
        self._flush_access(stmt, scopes)
        # Text after the last access label is the declaration itself.
        last = None
        for am in ACCESS_RE.finditer(stmt):
            last = am
        decl = stmt[last.end():] if last else stmt
        decl_off = offset + (last.end() if last else 0)

        # Only public API and namespace scope matter; an initializer or
        # unknown block is skipped.
        if not api_visible(scopes):
            return
        self._collect_params(decl, decl_off)
        m = RETURN_DOUBLE_RE.search(decl)
        if m:
            self.return_decls.append(
                (m.group(1), self._line_of(decl_off + m.start(1))))
        klass = next((s[1] for s in reversed(scopes) if s[0] == "class"),
                     None)
        if klass is not None:
            for regex, kind in ((MEMBER_DOUBLE_RE, "double"),
                                (MEMBER_VECTOR_RE, "vector<double>")):
                for mm in regex.finditer(decl):
                    self.members.append(
                        Member(mm.group(1), self.rel,
                               self._line_of(decl_off + mm.start(1)),
                               kind, klass))
            return

        # Namespace scope: mutable globals.
        if m or "(" in decl or GLOBAL_SKIP_RE.search(decl):
            return
        gm = GLOBAL_DECL_RE.match(decl.strip()) or \
            GLOBAL_DECL_RE.match(" " + decl.replace("\n", " ").strip())
        if gm:
            self.globals[gm.group(1)] = self._line_of(decl_off)

    def _head_return_decl(self, head: str, offset: int) -> None:
        m = RETURN_DOUBLE_RE.search(head)
        if m:
            self.return_decls.append(
                (m.group(1), self._line_of(offset + m.start(1))))

    def _collect_params(self, text: str, offset: int) -> None:
        """Suffix-named raw double parameters: `double <name>_s` inside
        the parentheses of a declaration or a definition head."""
        if "double" not in text:
            return
        depth = 0
        for col, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            elif ch == "d" and depth:
                m = PARAM_DOUBLE_RE.match(text, col)
                if m:
                    self.params.append(
                        (m.group(1), self._line_of(offset + col)))

    def _collect_enum(self, name: str, body: str, body_offset: int) -> None:
        enumerators = []
        for m in re.finditer(r"(?:^|,)\s*(\w+)", body):
            enumerators.append(
                (m.group(1), self._line_of(body_offset + m.start(1))))
        self.enums.append(EnumDef(name, self.rel, enumerators))


def body_calls(body: str) -> list:
    """(name, offset) call expressions in a stripped body."""
    calls = []
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        if name.split("::")[-1] in CONTROL_KEYWORDS:
            continue
        calls.append((name, m.start(1)))
    return calls


def per_file(rule):
    """Run a one-file token rule over every scanned file."""
    def run(files, report):
        for sf in files:
            rule(sf, report)
    return run


def scan_lines(sf, report, check, patterns, message) -> None:
    """Report the first of `patterns` that matches each stripped line;
    `message` is formatted with `what`, the matching pattern's label."""
    for no, line in enumerate(sf.stripped_lines, start=1):
        for pat, what in patterns:
            if pat.search(line):
                report.add(check, sf, no, message.format(what=what))
                break


# ---------------------------------------------------------------------------
# Rule: wall-clock
# ---------------------------------------------------------------------------

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
# determinism tests pin that).  bench/ and perfbench/ are benchmark
# harnesses: measuring host time is their purpose, and their results are
# timings, never simulation outputs.
WALL_CLOCK_ALLOWED_PREFIXES = ("src/obs/", "src/fleet/", "bench/",
                               "perfbench/", "tests/obs/")


@per_file
def check_wall_clock(sf, report) -> None:
    if not sf.rel.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
        scan_lines(sf, report, "wall-clock", WALL_CLOCK_PATTERNS,
                   "{what} in simulation code: models must use simulated "
                   "time (obs::set_sim_now / phase clocks), not host time")


# ---------------------------------------------------------------------------
# Rule: rng
# ---------------------------------------------------------------------------

RNG_PATTERNS = (
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"std::random_device"), "std::random_device"),
)

RNG_ALLOWED_PREFIXES = ("src/util/",)


@per_file
def check_rng(sf, report) -> None:
    if not sf.rel.startswith(RNG_ALLOWED_PREFIXES):
        scan_lines(sf, report, "rng", RNG_PATTERNS,
                   "{what}: all randomness must come from ash::Rng with a "
                   "seed derived via derive_seed (see ash/util/random.h)")


# ---------------------------------------------------------------------------
# Rule: unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>[&\s]+(\w+)\s*[;={(]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;]*)\)\s*[{]?")


@per_file
def check_unordered_iter(sf, report) -> None:
    # Names (variables and type aliases) known to be unordered in this file.
    unordered_vars: set[str] = set()
    alias_types: set[str] = set()
    for line in sf.stripped_lines:
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
    for line in sf.stripped_lines:
        for pat in alias_decl_res:
            m = pat.search(line)
            if m:
                unordered_vars.add(m.group(1))

    for no, line in enumerate(sf.stripped_lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group(2).strip()
        tail = range_expr.split(".")[-1].split("->")[-1]
        tail_name = re.match(r"(\w+)", tail)
        direct_unordered = "unordered_" in range_expr
        if direct_unordered or (tail_name and tail_name.group(1)
                                in unordered_vars):
            report.add(
                "unordered-iter", sf, no,
                f"range-for over unordered container '{range_expr}': "
                "iteration order is implementation-defined; iterate a "
                "sorted view or an ordered container when results merge")


# ---------------------------------------------------------------------------
# Rule: float-physics
# ---------------------------------------------------------------------------

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


@per_file
def check_float_physics(sf, report) -> None:
    if not sf.rel.startswith(EXP_SCOPE_PREFIXES):
        return
    in_physics = sf.rel.startswith(PHYSICS_PREFIXES)
    for no, line in enumerate(sf.stripped_lines, start=1):
        if in_physics and FLOAT_RE.search(line):
            report.add(
                "float-physics", sf, no,
                "float in a physics path: the models are calibrated in "
                "double precision; use double (or a units.h strong type)")
        m = EXPF_CALL_RE.search(line)
        if m:
            report.add(
                "float-physics", sf, no,
                f"{m.group(1)} is a single-precision exponential; use "
                "std::exp")
        m = APPROX_EXP_DEF_RE.search(line)
        if m:
            report.add(
                "float-physics", sf, no,
                f"'{m.group(1)}' looks like a homebrew approximate "
                "exponential; physics and util code use std::exp")


# ---------------------------------------------------------------------------
# Rule: unchecked-io
# ---------------------------------------------------------------------------

# Write-capable file streams only: ostringstream cannot fail meaningfully
# and ifstream misuse shows up as parse failures downstream.
WRITE_STREAM_DECL_RE = re.compile(r"\bstd::o?fstream\s+(\w+)\s*[({]")
STATE_CHECK_TEMPLATES = (
    r"!\s*{n}\b",                                              # if (!os)
    r"\b{n}\s*\.\s*(?:fail|good|bad|is_open|rdstate|exceptions)\s*\(",
    r"\b(?:if|while)\s*\(\s*{n}\s*[)&|]",                      # if (os) ...
)


@per_file
def check_unchecked_io(sf, report) -> None:
    for no, line in enumerate(sf.stripped_lines, start=1):
        m = WRITE_STREAM_DECL_RE.search(line)
        if not m:
            continue
        name = re.escape(m.group(1))
        if any(re.search(t.format(n=name), sf.stripped)
               for t in STATE_CHECK_TEMPLATES):
            continue
        report.add(
            "unchecked-io", sf, no,
            f"write stream '{m.group(1)}' is never state-checked: a full "
            "disk or torn write fails silently; test the stream after "
            f"writing (e.g. `if (!{m.group(1)})`) or use "
            "util::atomic_write_file")


# ---------------------------------------------------------------------------
# Rule: eintr
# ---------------------------------------------------------------------------

EINTR_SYSCALL_RE = re.compile(
    r"::(read|write|poll|waitpid|accept4?|connect|recv|send|nanosleep)\s*\(")

# The process/socket layer is the one place slow syscalls meet real
# signals; everywhere else the repo stays on C++ iostream/filesystem APIs.
EINTR_SCOPED_PREFIXES = ("src/fleet/",)


@per_file
def check_eintr(sf, report) -> None:
    if not sf.rel.startswith(EINTR_SCOPED_PREFIXES):
        return
    for no, line in enumerate(sf.stripped_lines, start=1):
        m = EINTR_SYSCALL_RE.search(line)
        if not m:
            continue
        # The wrapper and the call usually share a line; clang-format may
        # push the lambda body one or two lines down.
        window = sf.stripped_lines[max(0, no - 3):no]
        if any("retry_eintr" in w for w in window):
            continue
        report.add(
            "eintr", sf, no,
            f"bare ::{m.group(1)}() can fail spuriously with EINTR when a "
            "signal lands (SIGCHLD from a dying worker, SIGTERM during "
            "drain); wrap the call in util::retry_eintr "
            "(ash/util/syscall.h).  ::close stays bare by design")


# ---------------------------------------------------------------------------
# Rule: metric-name
# ---------------------------------------------------------------------------

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


@per_file
def check_metric_name(sf, report) -> None:
    hot = sf.rel in METRIC_HOT_KERNEL_FILES
    for no, line in enumerate(sf.stripped_lines, start=1):
        m = METRIC_REG_RE.search(line)
        if not m:
            continue
        if hot:
            report.add(
                "metric-name", sf, no,
                f".{m.group(1)}() inside an instrumented hot-path kernel: "
                "registration locks the registry mutex per call and bills "
                "the kernel being profiled; register once at setup and "
                "reuse the returned reference")
            continue
        lm = METRIC_LITERAL_RE.search(sf.source_line(no))
        if not lm:
            continue  # computed name: validated by what it renders into
        name = lm.group(1)
        if not METRIC_NAME_OK_RE.match(name):
            report.add(
                "metric-name", sf, no,
                f"metric name \"{name}\" violates [a-z0-9_.]+: dots "
                "namespace, underscores separate words; anything else "
                "breaks the scrape-prefix filter and the key=value dump "
                "grammar")


# ---------------------------------------------------------------------------
# Checker: signal-safety
# ---------------------------------------------------------------------------

# The POSIX async-signal-safe set the tree is allowed to lean on, plus
# project functions whose AS-safety is pinned by their own tests:
# FlightRecorder::record (atomics + fixed slots) and write_fd (write(2)
# into a stack buffer, byte-identical to serialize() by test).
AS_SAFE_CALLS = frozenset("""
    open close read write rename unlink fsync fdatasync raise kill _exit
    _Exit abort sigaction sigemptyset sigfillset sigaddset sigdelset
    sigprocmask signal waitpid getpid gettid dup dup2 pipe poll lseek
    record write_fd
""".split())

AS_UNSAFE_CALLS = {
    "malloc": "allocates on the heap the interrupted thread may hold",
    "calloc": "allocates on the heap the interrupted thread may hold",
    "realloc": "allocates on the heap the interrupted thread may hold",
    "free": "takes the heap lock the interrupted thread may hold",
    "printf": "stdio buffers are not async-signal-safe",
    "fprintf": "stdio buffers are not async-signal-safe",
    "snprintf": "not on the POSIX AS-safe list (may call malloc for %f)",
    "sprintf": "stdio formatting is not async-signal-safe",
    "puts": "stdio buffers are not async-signal-safe",
    "exit": "runs atexit handlers and flushes stdio; use _exit",
    "lock": "a mutex held by the interrupted thread deadlocks the handler",
    "unlock": "mutex operations are not async-signal-safe",
}

UNSAFE_TOKEN_RES = (
    (re.compile(r"(?<!\w)new\s+[\w:]"), "operator new allocates"),
    (re.compile(r"(?<!\w)throw\s"), "throw unwinds through foreign frames"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "iostream locks and allocates"),
    (re.compile(r"std::string\b"), "std::string allocates"),
)


def find_handler_roots(files):
    roots = []
    for sf in files:
        for func in sf.functions:
            for regex in (HANDLER_ASSIGN_RE, SIGNAL_CALL_RE):
                for m in regex.finditer(func.body):
                    name = m.group(1).split("::")[-1]
                    if name not in ("SIG_IGN", "SIG_DFL"):
                        roots.append((name, sf,
                                      func.body_line +
                                      func.body.count("\n", 0, m.start())))
    return roots


def check_signal_safety(files, report):
    by_name: dict[str, list] = {}
    for sf in files:
        for func in sf.functions:
            by_name.setdefault(func.name, []).append((sf, func))

    roots = find_handler_roots(files)
    seen = set()
    queue = [name for name, _, _ in roots]
    while queue:
        name = queue.pop(0)
        if name in seen:
            continue
        seen.add(name)
        for sf, func in by_name.get(name, []):
            line_base = func.body_line
            for tok_re, why in UNSAFE_TOKEN_RES:
                m = tok_re.search(func.body)
                if m:
                    line = line_base + func.body.count("\n", 0, m.start())
                    report.add(
                        "signal-safety", sf, line,
                        f"'{func.qualified}' is reachable from a signal "
                        f"handler but {why}; only AS-safe operations may "
                        "run on this path")
            for callee, off in body_calls(func.body):
                simple = callee.split("::")[-1]
                line = line_base + func.body.count("\n", 0, off)
                if simple in AS_SAFE_CALLS:
                    continue
                if simple in AS_UNSAFE_CALLS:
                    report.add(
                        "signal-safety", sf, line,
                        f"'{callee}' called on the signal-handler path "
                        f"from '{func.qualified}': {AS_UNSAFE_CALLS[simple]}")
                elif simple in by_name:
                    queue.append(simple)
                else:
                    report.add(
                        "signal-safety", sf, line,
                        f"'{callee}' called on the signal-handler path "
                        f"from '{func.qualified}' is not on the AS-safe "
                        "allowlist; prove it safe and pin it, or move the "
                        "work out of the handler")


# ---------------------------------------------------------------------------
# Checker: shard-purity
# ---------------------------------------------------------------------------

ERRNO_LATCHING_RE = re.compile(
    r"(?<![\w:])(?:std::)?(strto(?:d|f|ld|l|ll|ul|ull|imax|umax)|strerror)"
    r"\s*\(")
ERRNO_RE = re.compile(r"(?<![\w.])errno\b")
RNG_IMPURE_RE = re.compile(
    r"(?<![\w:])(?:std::)?(rand|srand|drand48|lrand48|mrand48)\s*\(|"
    r"std::(random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine)\b")

SHARD_BFS_DEPTH = 2


def shard_lambda_spans(sf):
    """(body_text, line) of each lambda passed to parallel_for/submit."""
    spans = []
    for func in sf.functions:
        body = func.body
        for m in re.finditer(r"\b(?:parallel_for|submit)\s*\(", body):
            lam = LAMBDA_START_RE.search(body, m.end())
            if not lam:
                continue
            open_at = body.index("{", lam.start())
            depth = 0
            end = open_at
            for j in range(open_at, len(body)):
                if body[j] == "{":
                    depth += 1
                elif body[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            spans.append((body[open_at + 1:end],
                          func.body_line + body.count("\n", 0, open_at)))
    return spans


def check_shard_purity(files, report):
    by_name: dict[str, list] = {}
    for sf in files:
        for func in sf.functions:
            by_name.setdefault(func.name, []).append((sf, func))

    def scan_body(sf, body, line_base, context):
        for regex, what in (
                (ERRNO_RE, "reads/writes errno, which is latched "
                 "per-thread by unrelated libc calls"),
                (ERRNO_LATCHING_RE, "calls an errno-latching conversion; "
                 "use util's locale-free parsers outside the sharded loop"),
                (RNG_IMPURE_RE, "uses a non-util RNG; all randomness in a "
                 "sharded loop must come from a pre-derived ash::Rng "
                 "stream owned by the shard")):
            for m in regex.finditer(body):
                line = line_base + body.count("\n", 0, m.start())
                report.add(
                    "shard-purity", sf, line,
                    f"{context} {what} — sharded loops must be "
                    "bit-identical at any thread count")
        for m in STATIC_LOCAL_RE.finditer(body):
            line = line_base + body.count("\n", 0, m.start())
            report.add(
                "shard-purity", sf, line,
                f"{context} declares mutable static local "
                f"'{m.group(1)}': shared across shards, ordering is "
                "scheduler-dependent")
        for gname, _ in sf.globals.items():
            gre = re.compile(r"(?<![\w.])" + re.escape(gname) + r"\b")
            m = gre.search(body)
            if m:
                line = line_base + body.count("\n", 0, m.start())
                report.add(
                    "shard-purity", sf, line,
                    f"{context} touches file-scope mutable '{gname}': "
                    "shard bodies may only write state they own by index")

    def resolve(callee: str, rel: str) -> list:
        """Same-file definitions first; across files only when the simple
        name is project-unique (a name-based resolver cannot pick between
        the many `run`s and `evolve`s — a documented parser limit)."""
        simple = callee.split("::")[-1]
        cands = by_name.get(simple, [])
        same_file = [c for c in cands if c[0].rel == rel]
        if same_file:
            return same_file
        if "::" in callee:
            qualified = [c for c in cands
                         if c[1].qualified.endswith(callee)]
            if qualified:
                return qualified
        return cands if len(cands) == 1 else []

    for sf in files:
        for body, line in shard_lambda_spans(sf):
            scan_body(sf, body, line, "sharded loop body")
            # Bounded BFS into the project functions the lambda calls.
            frontier = [(c, sf.rel) for c, _ in body_calls(body)]
            seen = set()
            for _ in range(SHARD_BFS_DEPTH):
                nxt = []
                for callee, rel in frontier:
                    simple = callee.split("::")[-1]
                    if simple in seen:
                        continue
                    seen.add(simple)
                    for csf, cfunc in resolve(callee, rel):
                        scan_body(csf, cfunc.body, cfunc.body_line,
                                  f"'{cfunc.qualified}' (reached from a "
                                  "sharded loop)")
                        nxt.extend((c, csf.rel)
                                   for c, _ in body_calls(cfunc.body))
                frontier = nxt


# ---------------------------------------------------------------------------
# Checker: unit-flow
# ---------------------------------------------------------------------------

UNIT_TYPE_FOR_SUFFIX = {
    "s": "Seconds", "v": "Volts", "k": "Kelvin", "c": "Celsius",
    "hz": "Hertz",
}

# `x_per_v`, `ramp_c_per_s`, `heat_capacity_j_per_k`... are *rates* —
# dimensionless in none of the five base units — not quantities carrying
# the suffix unit; forcing a strong type on them would mis-state their
# dimension.
RATE_NAME_RE = re.compile(r"_per_(?:s|v|k|c|hz)$")

UNIT_FLOW_PREFIX = "src/"
UNIT_FLOW_EXEMPT = ("src/util/include/ash/util/units.h",)

# Parameters are checked on the physics modules' public headers only; the
# core/obs/util APIs still take a few raw suffix-named doubles.
PARAM_SCOPE_RE = re.compile(r"src/(?:bti|fpga|tb|mc)/include/")


def unit_type(name: str):
    """`ash::<Type>` for a suffix-named quantity, or None for a rate."""
    if RATE_NAME_RE.search(name):
        return None
    return "ash::" + UNIT_TYPE_FOR_SUFFIX[name.rsplit("_", 1)[1]]


def check_unit_flow(files, report):
    for sf in files:
        if not sf.rel.startswith(UNIT_FLOW_PREFIX):
            continue
        if sf.rel in UNIT_FLOW_EXEMPT:
            continue
        for member in sf.members:
            want = unit_type(member.name)
            if want is None:
                continue
            fix = want if member.kind == "double" else \
                f"std::vector<{want}>"
            report.add(
                "unit-flow", sf, member.line,
                f"public member '{member.owner}::{member.name}' is a raw "
                f"{member.kind}; use {fix} so the unit rides the type "
                "through serialization and call chains")
        for name, line in sf.return_decls:
            want = unit_type(name)
            if want is not None:
                report.add(
                    "unit-flow", sf, line,
                    f"'{name}' returns a raw double; return {want} so "
                    "callers cannot mistake the unit")
        if not PARAM_SCOPE_RE.match(sf.rel):
            continue
        for name, line in sf.params:
            want = unit_type(name)
            if want is not None:
                report.add(
                    "unit-flow", sf, line,
                    f"parameter 'double {name}' on a public API: use "
                    f"{want} from ash/util/units.h so the unit is part of "
                    "the type")


# ---------------------------------------------------------------------------
# Checker: protocol-exhaustiveness
# ---------------------------------------------------------------------------

PROTOCOL_HEADER = "src/fleet/include/ash/fleet/protocol.h"
PROTOCOL_IMPL = "src/fleet/protocol.cpp"
PROTOCOL_TESTS_DIR = "tests/fleet"

VIOLATION_SENTINELS = ("kNone", "kCount")


def check_protocol(files, report):
    header = impl = None
    for sf in files:
        if sf.rel == PROTOCOL_HEADER:
            header = sf
        elif sf.rel == PROTOCOL_IMPL:
            impl = sf
    if header is None or impl is None:
        return  # nothing to check in this tree (fixture roots)

    # The tests are read from disk whatever paths were scanned.
    tests_dir = os.path.join(header.path[:-len(PROTOCOL_HEADER)],
                             PROTOCOL_TESTS_DIR)
    tests_text = ""
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith(CXX_EXTENSIONS):
                with open(os.path.join(tests_dir, name), "r",
                          encoding="utf-8", errors="replace") as f:
                    tests_text += f.read()

    struct_names = {m.group(1) for m in re.finditer(
        r"\bstruct\s+(\w+)", header.code)}

    for enum in header.enums:
        if enum.name == "MessageType":
            for name, line in enum.enumerators:
                struct = name[1:] if name.startswith("k") else name
                missing = []
                if struct not in struct_names:
                    missing.append("a payload codec struct in protocol.h")
                if f"MessageType::{name}" not in impl.code:
                    missing.append("a to_string classification in "
                                   "protocol.cpp")
                if name not in tests_text:
                    missing.append(f"a hostile-input test under "
                                   f"{PROTOCOL_TESTS_DIR}/ referencing it")
                if missing:
                    report.add(
                        "protocol-exhaustiveness", header, line,
                        f"MessageType::{name} lacks " + "; ".join(missing) +
                        " — every wire verb ships with its codec and its "
                        "hostile-input proof")
        elif enum.name == "ProtocolViolation":
            for name, line in enum.enumerators:
                if name in VIOLATION_SENTINELS:
                    continue
                missing = []
                if f"ProtocolViolation::{name}" not in impl.code:
                    missing.append("a classification site in protocol.cpp")
                if name not in tests_text:
                    missing.append(f"a hostile-input test under "
                                   f"{PROTOCOL_TESTS_DIR}/")
                if missing:
                    report.add(
                        "protocol-exhaustiveness", header, line,
                        f"ProtocolViolation::{name} lacks " +
                        "; ".join(missing))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECKS = {
    "wall-clock": check_wall_clock,
    "rng": check_rng,
    "unordered-iter": check_unordered_iter,
    "float-physics": check_float_physics,
    "unchecked-io": check_unchecked_io,
    "eintr": check_eintr,
    "metric-name": check_metric_name,
    "signal-safety": check_signal_safety,
    "shard-purity": check_shard_purity,
    "unit-flow": check_unit_flow,
    "protocol-exhaustiveness": check_protocol,
}


def iter_source_files(root, paths):
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            yield full, os.path.relpath(full, root)
            continue
        if not os.path.isdir(full):
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(part in f"{rel_dir}/{d}"
                           for part in EXCLUDED_PARTS))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    p = os.path.join(dirpath, name)
                    yield p, os.path.relpath(p, root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ash_check",
        description="determinism, units, call-graph and protocol static "
        "analysis for the ash lab")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories relative to --root "
                        f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--check", action="append", choices=list(CHECKS),
                        help="run only the named check(s)")
    parser.add_argument("--list-checks", action="store_true",
                        help="list check names and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"ash_check: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2

    try:
        files = [SourceFile(path, rel)
                 for path, rel in iter_source_files(root, args.paths)]
    except OSError as err:
        print(f"ash_check: {err}", file=sys.stderr)
        return 2

    if not files:
        print("ash_check: no source files matched", file=sys.stderr)
        return 2

    report = Report()
    for name, run in CHECKS.items():
        if not args.check or name in args.check:
            run(files, report)

    report.findings.sort(key=lambda f: (f.path, f.line, f.check))

    if args.json:
        counts: dict[str, int] = {}
        for f in report.findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        print(json.dumps({
            "findings": [asdict(f) for f in report.findings],
            "counts": counts,
            "files_scanned": len(files),
            "suppressed": len(report.suppressed),
        }, indent=2))
    else:
        for f in report.findings:
            print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
            if f.snippet:
                print(f"    {f.snippet}")
        tail = (f"{len(files)} files scanned, "
                f"{len(report.findings)} finding(s)")
        if report.suppressed:
            tail += f", {len(report.suppressed)} suppressed"
        print(tail, file=sys.stderr)

    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
