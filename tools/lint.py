#!/usr/bin/env python3
"""rocpio repository lint.

Enforces repo-wide correctness invariants that the compiler cannot:

  raw-sync         No raw std::mutex / std::condition_variable (or the
                   std lock helpers) outside the annotated wrappers in
                   src/util/mutex.h -- all locking must go through
                   roc::Mutex / roc::CondVar so Clang Thread Safety
                   Analysis and the concurrency checker see it.
  raw-thread       No raw std::thread construction or detach() outside
                   the roc::Thread wrapper (src/util/thread.*) and the
                   simulator's platform shim -- every thread must be a
                   roc::Thread so the concurrency checker sees its
                   spawn/join happens-before edges and so nothing
                   detaches (abandon() is the single, named escape
                   hatch).  std::thread::id and std::this_thread remain
                   legal.
  raw-clock        No raw std::chrono clock reads
                   (steady_clock/system_clock/high_resolution_clock::now)
                   outside roc::Stopwatch (src/util/stopwatch.h) and the
                   telemetry clock -- everything else must time through
                   Stopwatch or telemetry::now() so simulated runs see
                   virtual time and traces stay on one timebase.
  catch-all        No `catch (...)` that silently swallows exceptions: the
                   handler must rethrow (`throw`), capture
                   (`std::current_exception`), or carry an explicit
                   `LINT-ALLOW(catch-all): <reason>` marker.  Worker-thread
                   exceptions vanishing is exactly how snapshot corruption
                   hides.
  pragma-once      Every header starts with `#pragma once` as its first
                   non-comment line.
  raw-io           No raw POSIX write calls (::write/::pwrite/::writev
                   and variants) outside src/vfs/ -- all file output must
                   flow through the vfs layer so telemetry spans and
                   the sim substrate see it.  Reads stay legal (tools
                   legitimately read /proc etc.).
  metric-name      Every span/instant name handed to the telemetry emit
                   macros (the ROC_TRACE_* category and name) must be
                   a single string literal matching the lowercase
                   dotted grammar
                   `[a-z][a-z0-9_]*(.[a-z][a-z0-9_]*)*` -- ad-hoc or
                   computed names break tools/trace_report.py's
                   grouping.  Dynamic names
                   need a `LINT-ALLOW(metric-name): <reason>` marker on
                   the flagged line or the line directly above.
  analyzer-allow   Every `ROCANALYZE-ALLOW(rule): ...` suppression marker
                   must be well-formed and carry a `why:` justification in
                   its reason text -- suppressions without a recorded
                   rationale rot into unauditable exemptions (the same
                   contract rocanalyze --strict enforces for baseline
                   entries).
  build-artifacts  No build artifacts tracked in git (build*/ trees,
                   object files, CMake/CTest droppings).

Usage:  tools/lint.py [--root DIR] [--rules rule1,rule2] [-q]

Exit status: 0 clean, 1 violations found, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

# Files allowed to use the raw primitives: the wrapper implementation.
RAW_SYNC_ALLOWLIST = {
    os.path.join("src", "util", "mutex.h"),
    os.path.join("src", "util", "mutex.cpp"),
}

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock"
    r")\b"
)

ALLOW_MARKER = "LINT-ALLOW"

# Files allowed to touch std::thread directly: the roc::Thread wrapper
# (instrumented with checker spawn/join edges) and the simulator's
# platform shim.
RAW_THREAD_ALLOWLIST = {
    os.path.join("src", "util", "thread.h"),
    os.path.join("src", "util", "thread.cpp"),
    os.path.join("src", "sim", "platform.h"),
    os.path.join("src", "sim", "platform.cpp"),
}

# `std::thread t(...)` and friends, but not `std::thread::id` or
# `std::this_thread::...` (scoped uses stay legal).
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*thread\b(?!\s*::)")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")

# Sanctioned raw-clock users: the wall-clock wrapper and the swappable
# telemetry clock (whose WallClock fallback must read the real clock).
RAW_CLOCK_ALLOWLIST_FILES = {
    os.path.join("src", "util", "stopwatch.h"),
}
RAW_CLOCK_ALLOWLIST_DIRS = (
    os.path.join("src", "telemetry") + os.sep,
)

RAW_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*"
    r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
)

# The vfs layer is the single sanctioned home of raw write syscalls;
# everything else writes through vfs::File implementations.
RAW_IO_ALLOWLIST_DIRS = (
    os.path.join("src", "vfs") + os.sep,
)

# A global-scope-qualified write call: `::write(`, `::pwrite64(`, ... but
# not `obj::write(` (namespaced member) or `f->write(` (vfs::File).
RAW_IO_RE = re.compile(
    r"(?:^|[^:\w])::\s*(write|pwrite|pwrite64|writev|pwritev|pwritev2)\s*\(")

BUILD_ARTIFACT_RES = [
    re.compile(r"^build[^/]*/"),
    re.compile(r"\.(o|obj|a|so|dylib|gch|pch)$"),
    re.compile(r"(^|/)CMakeCache\.txt$"),
    re.compile(r"(^|/)CMakeFiles/"),
    re.compile(r"(^|/)CTestTestfile\.cmake$"),
    re.compile(r"(^|/)Testing/"),
    re.compile(r"(^|/)(LastTest|LastTestsFailed)\.log$"),
]


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replaces comments and string/char literal *contents* with spaces,
    preserving newlines and overall length so line numbers and brace
    matching stay valid."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STRING
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


def iter_source_files(root: str):
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [x for x in dirnames if not x.startswith(".")]
            for f in sorted(filenames):
                if f.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, f)


def relpath(root: str, path: str) -> str:
    return os.path.relpath(path, root)


# --- rule: raw-sync ---------------------------------------------------------

def check_raw_sync(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    if rel in RAW_SYNC_ALLOWLIST:
        return
    lines = stripped.splitlines()
    raw_lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = RAW_SYNC_RE.search(line)
        if not m:
            continue
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if ALLOW_MARKER in raw:
            continue
        yield Violation(
            "raw-sync", rel, lineno,
            f"raw std::{m.group(1)} -- use roc::Mutex / roc::CondVar / "
            f"roc::MutexLock from src/util/mutex.h (or comm::Gate)")


# --- rule: raw-thread -------------------------------------------------------

def check_raw_thread(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    if rel in RAW_THREAD_ALLOWLIST:
        return
    lines = stripped.splitlines()
    raw_lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        hit = None
        if RAW_THREAD_RE.search(line):
            hit = ("raw std::thread -- use roc::Thread "
                   "(src/util/thread.h) so spawn/join happens-before "
                   "edges reach the concurrency checker")
        elif DETACH_RE.search(line):
            hit = ("detach() -- threads must be joined; if a thread "
                   "really must be orphaned, use roc::Thread::abandon() "
                   "and justify the call site")
        if hit is None:
            continue
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if ALLOW_MARKER in raw:
            continue
        yield Violation("raw-thread", rel, lineno, hit)


# --- rule: raw-clock --------------------------------------------------------

def check_raw_clock(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    if rel in RAW_CLOCK_ALLOWLIST_FILES:
        return
    if any(rel.startswith(d) for d in RAW_CLOCK_ALLOWLIST_DIRS):
        return
    lines = stripped.splitlines()
    raw_lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = RAW_CLOCK_RE.search(line)
        if not m:
            continue
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if ALLOW_MARKER in raw:
            continue
        yield Violation(
            "raw-clock", rel, lineno,
            f"raw std::chrono::{m.group(1)}::now() -- use roc::Stopwatch "
            f"(src/util/stopwatch.h) or roc::telemetry::now() so simulated "
            f"runs see virtual time")


# --- rule: catch-all --------------------------------------------------------

CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")


def check_catch_all(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    for m in CATCH_ALL_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        # Find the handler block.
        brace = stripped.find("{", m.end())
        if brace < 0:
            continue
        depth, j = 0, brace
        while j < len(stripped):
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = stripped[brace:j + 1]
        # The unstripped body may carry the allow marker in a comment.
        raw_body = text[brace:j + 1]
        context = "\n".join(text.splitlines()[max(0, lineno - 3):lineno])
        if ("throw" in body or "current_exception" in body
                or ALLOW_MARKER in raw_body or ALLOW_MARKER in context):
            continue
        yield Violation(
            "catch-all", rel, lineno,
            "catch (...) swallows the exception: rethrow, capture "
            "std::current_exception(), or justify with "
            "`// LINT-ALLOW(catch-all): <reason>`")


# --- rule: pragma-once ------------------------------------------------------

def check_pragma_once(root: str, path: str, text: str, stripped: str):
    if not path.endswith((".h", ".hpp")):
        return
    rel = relpath(root, path)
    for lineno, line in enumerate(stripped.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        if s != "#pragma once":
            yield Violation(
                "pragma-once", rel, lineno,
                "header must start with `#pragma once` "
                f"(first code line is {s[:40]!r})")
        return
    yield Violation("pragma-once", rel, 1, "empty header without #pragma once")


# --- rule: raw-io -----------------------------------------------------------

def check_raw_io(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    if any(rel.startswith(d) for d in RAW_IO_ALLOWLIST_DIRS):
        return
    lines = stripped.splitlines()
    raw_lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = RAW_IO_RE.search(line)
        if not m:
            continue
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if ALLOW_MARKER in raw:
            continue
        yield Violation(
            "raw-io", rel, lineno,
            f"raw ::{m.group(1)}() outside src/vfs/ -- write through the "
            f"vfs layer (vfs::File) so trace spans and the sim substrate "
            f"see the bytes")


# --- rule: metric-name ------------------------------------------------------

# Emit sites whose name arguments (category and name) are checked.
METRIC_EMIT_RE = re.compile(
    r"\b(?P<trace>ROC_TRACE_(?:SPAN_D|SPAN|INSTANT_D|INSTANT))\s*\(")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)*$")
STRING_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$', re.S)

# The macro definitions themselves pass their parameters through.
METRIC_NAME_ALLOWLIST_FILES = {
    os.path.join("src", "telemetry", "trace.h"),
}


def call_args(stripped: str, text: str, open_paren: int, max_args: int):
    """First `max_args` top-level argument slices of the call whose `(` is
    at `open_paren`, taken from the RAW text (string contents are blanked
    in `stripped`, but its commas/parens are authoritative)."""
    args, depth = [], 0
    start = open_paren + 1
    i, n = open_paren, len(stripped)
    while i < n:
        c = stripped[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i].strip())
                return args[:max_args]
        elif c == "," and depth == 1:
            args.append(text[start:i].strip())
            start = i + 1
            if len(args) >= max_args:
                return args
        i += 1
    return []


def check_metric_name(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    if rel in METRIC_NAME_ALLOWLIST_FILES:
        return
    raw_lines = text.splitlines()
    for m in METRIC_EMIT_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        if ALLOW_MARKER in raw or ALLOW_MARKER in prev:
            continue
        site = m.group("trace")
        args = call_args(stripped, text, m.end() - 1, 2)
        if len(args) < 2:
            # Unparseable (preprocessor definition, split across files).
            continue
        for arg in args:
            lit = STRING_LITERAL_RE.match(arg)
            if lit is None:
                yield Violation(
                    "metric-name", rel, lineno,
                    f"{site}() name is not a single string literal -- "
                    f"span/instant names must be compile-time constants "
                    f"so trace_report.py can group on them; "
                    f"justify a dynamic name with "
                    f"`// LINT-ALLOW(metric-name): <reason>`")
            elif not METRIC_NAME_RE.match(lit.group(1)):
                yield Violation(
                    "metric-name", rel, lineno,
                    f"{site}() name {lit.group(1)!r} -- must be a lowercase "
                    f"dotted identifier "
                    f"([a-z][a-z0-9_]*(.[a-z][a-z0-9_]*)*)")


# --- rule: analyzer-allow ---------------------------------------------------

# A well-formed suppression: `ROCANALYZE-ALLOW(rule-id): why: <reason>`.
# rocanalyze only needs the `(rule): reason` shape; lint additionally
# demands the `why:` tag so every suppression in the tree records its
# justification (the same contract --strict enforces for baseline entries).
ROCANALYZE_MARKER = "ROCANALYZE-ALLOW"
ROCANALYZE_ALLOW_RE = re.compile(
    r"ROCANALYZE-ALLOW\(\s*([\w,\s-]+?)\s*\)\s*:\s*(\S.*)")


def check_analyzer_allow(root: str, path: str, text: str, stripped: str):
    rel = relpath(root, path)
    for lineno, line in enumerate(text.splitlines(), 1):
        if ROCANALYZE_MARKER not in line:
            continue
        m = ROCANALYZE_ALLOW_RE.search(line)
        if m is None:
            yield Violation(
                "analyzer-allow", rel, lineno,
                "malformed ROCANALYZE-ALLOW marker -- expected "
                "`ROCANALYZE-ALLOW(rule-id): why: <justification>`")
        elif "why:" not in m.group(2):
            yield Violation(
                "analyzer-allow", rel, lineno,
                f"ROCANALYZE-ALLOW({m.group(1)}) suppression without a "
                f"`why:` justification -- record WHY the finding is "
                f"acceptable, not just that it is")


# --- rule: build-artifacts --------------------------------------------------

def check_build_artifacts(root: str):
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"lint: cannot run `git ls-files` in {root}: {e}",
              file=sys.stderr)
        sys.exit(2)
    for tracked in out.splitlines():
        for rx in BUILD_ARTIFACT_RES:
            if rx.search(tracked):
                yield Violation(
                    "build-artifacts", tracked, 0,
                    "build artifact tracked in git -- `git rm --cached` it "
                    "and keep it covered by .gitignore")
                break


# --- driver -----------------------------------------------------------------

FILE_RULES = {
    "raw-sync": check_raw_sync,
    "raw-thread": check_raw_thread,
    "raw-clock": check_raw_clock,
    "catch-all": check_catch_all,
    "pragma-once": check_pragma_once,
    "raw-io": check_raw_io,
    "metric-name": check_metric_name,
    "analyzer-allow": check_analyzer_allow,
}
REPO_RULES = {
    "build-artifacts": check_build_artifacts,
}
ALL_RULES = list(FILE_RULES) + list(REPO_RULES)


def run_lint(root: str, rules) -> list:
    violations = []
    active_file_rules = [r for r in rules if r in FILE_RULES]
    if active_file_rules:
        for path in iter_source_files(root):
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"lint: cannot read {path}: {e}", file=sys.stderr)
                sys.exit(2)
            stripped = strip_comments_and_strings(text)
            for rule in active_file_rules:
                violations.extend(FILE_RULES[rule](root, path, text, stripped))
    for rule in rules:
        if rule in REPO_RULES:
            violations.extend(REPO_RULES[rule](root))
    return violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help=f"comma-separated subset of: {', '.join(ALL_RULES)}")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    violations = run_lint(args.root, rules)
    for v in violations:
        print(v)
    if not args.quiet:
        n = len(violations)
        print(f"lint: {n} violation(s) across rules [{', '.join(rules)}]"
              if n else f"lint: clean ({', '.join(rules)})")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
