#!/usr/bin/env python3
"""rocanalyze: whole-repo semantic analysis of rocpio-specific invariants.

Nine rule families, R1-R10 without R7 (rules.py has the full catalogue):

  R1 buffer-lifetime      stored/returned borrowing views (ConstBuffer,
                          WireBlockView, std::string_view) must have a
                          provably-outliving owner.
  R2 guard-completeness   fields written under a roc::Mutex / comm::Gate
                          must be ROC_GUARDED_BY it; guarded fields must
                          not be touched lock-free.  This closes the gap
                          Clang's -Wthread-safety leaves when annotations
                          are simply absent.
  R3 hook-coverage        checker-registered shared cells
                          (ROC_CHECK_SHARED_*) must be hooked at every
                          observing/mutating method, and guarded siblings
                          of registered cells must be registered.
  R4 wire-format hygiene  no memcpy/reinterpret_cast serialization of
                          non-trivially-copyable or padded structs outside
                          util/serialize.h.
  R5 static lock order    whole-program lock acquisition graph (call graph
                          + lock-set dataflow) must be acyclic; cycles are
                          potential deadlocks, found without running the
                          schedule.
  R6 blocking under lock  no path from a lock-held region to a curated
                          blocking op (vfs I/O, Comm send/recv, waits,
                          join, raw syscalls).
  R8 hot-path allocation  nothing reachable from a ROC_HOT root may
                          allocate outside the sanctioned BufferPool
                          channel or an explicit ROC_COLD branch; findings
                          carry the witness chain from the root.
  R9 copy discipline      by-value SharedBuffer / BufferChain /
                          std::function parameters must be moved into
                          their final home, and ConstBuffer borrows must
                          not be materialised into owned bytes on a hot
                          path.
  R10 cold escape         hot-reachable code must not call curated cold
                          roots (stdio, trace-file writers, flight
                          dumps, log emission).

The rules run over a conservative structural parse of the sources (the
lexical engine in cxxmodel.py), so no compiler is needed.

Findings are diffed against tools/rocanalyze/baseline.json by fingerprint
(rule + file + symbol, line-independent).  New findings fail the run; the
committed baseline must justify every entry.  Inline suppression:

    // ROCANALYZE-ALLOW(rule-id): reason

on the finding line or up to two lines above it.

Usage:
  tools/rocanalyze/rocanalyze.py [--root DIR] [--rules r1,r2-...]
      [--strict] [--baseline FILE | --no-baseline] [--update-baseline]
      [--out findings.json] [--paths file...] [-q]

Exit status: 0 clean, 1 new findings (or, with --strict, stale/unjustified
baseline entries), 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cxxmodel import LexicalEngine  # noqa: E402
from rules import ALL_RULES, run_rules  # noqa: E402

# Directories holding first-party sources the invariants apply to.  Tests
# and benches construct deliberately odd shapes (dangling fixtures, planted
# races) and are exercised by their own tooling.
SOURCE_DIRS = ("src",)
CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline.json")


def iter_source_files(root):
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [x for x in dirnames if not x.startswith(".")]
            for f in sorted(filenames):
                if f.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def expand_rules(spec):
    """Expands `r1,r2-unlocked-access` style specs: a bare family prefix
    (r1..r4) selects every rule in the family."""
    out = []
    for tok in (t.strip() for t in spec.split(",")):
        if not tok:
            continue
        if tok in ALL_RULES:
            out.append(tok)
        else:
            fam = [r for r in ALL_RULES if r.startswith(tok + "-")
                   or r == tok]
            if not fam:
                return None, tok
            out.extend(fam)
    return out, None


def load_baseline(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, json.JSONDecodeError) as e:
        print(f"rocanalyze: cannot read baseline {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    entries = {}
    for e in data.get("findings", []):
        entries[e["fingerprint"]] = e
    return entries


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (default: grandparent of this file)")
    ap.add_argument("--rules", default="r1,r2,r3,r4,r5,r6,r8,r9,r10",
                    help="comma-separated rule ids or family prefixes "
                         f"(families r1..r10; ids: {', '.join(ALL_RULES)})")
    ap.add_argument("--strict", action="store_true",
                    help="also fail on stale baseline entries and on "
                         "entries whose justification lacks a `why:` tag")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline file (default: committed baseline.json)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="report every finding (fixture/self-test mode)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current findings "
                         "(justifications of kept entries are preserved)")
    ap.add_argument("--out", default="",
                    help="write findings as JSON to this path")
    ap.add_argument("--paths", nargs="*", default=None,
                    help="analyze exactly these files (relative to --root "
                         "or absolute) instead of the source tree")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    rules, bad = expand_rules(args.rules)
    if bad is not None:
        print(f"rocanalyze: unknown rule or family: {bad}", file=sys.stderr)
        return 2

    if args.paths is not None:
        rel_paths = []
        for p in args.paths:
            ap_ = p if os.path.isabs(p) else os.path.join(root, p)
            if not os.path.isfile(ap_):
                print(f"rocanalyze: no such file: {p}", file=sys.stderr)
                return 2
            rel_paths.append(os.path.relpath(ap_, root))
    else:
        rel_paths = list(iter_source_files(root))
    if not rel_paths:
        print("rocanalyze: nothing to analyze", file=sys.stderr)
        return 2

    engine = LexicalEngine(root, rel_paths)
    try:
        models, structs = engine.build()
    except Exception as e:
        print(f"rocanalyze: engine {engine.name} failed: {e}",
              file=sys.stderr)
        return 2

    findings = run_rules(models, structs, rules=rules)

    if args.out:
        payload = {"engine": engine.name, "rules": rules,
                   "findings": [f.to_json() for f in findings]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    if args.update_baseline:
        old = load_baseline(args.baseline)
        entries = []
        for f in findings:
            e = f.to_json()
            del e["line"]  # lines drift; fingerprints do not
            e["justification"] = old.get(f.fingerprint, {}).get(
                "justification", "")
            entries.append(e)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"version": 1,
                       "comment": "Accepted rocanalyze findings.  Every "
                                  "entry MUST carry a justification; "
                                  "--strict enforces it.",
                       "findings": entries}, fh, indent=2)
            fh.write("\n")
        print(f"rocanalyze: baseline updated with {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'}")
        return 0

    baseline = {} if args.no_baseline else load_baseline(args.baseline)
    new = [f for f in findings if f.fingerprint not in baseline]
    known = [f for f in findings if f.fingerprint in baseline]

    for f in new:
        print(f)
    rc = 1 if new else 0

    if args.strict and not args.no_baseline:
        stale = [fp for fp in baseline
                 if fp not in {f.fingerprint for f in findings}]
        unjustified = [fp for fp, e in baseline.items()
                       if "why:" not in e.get("justification", "")]
        for fp in stale:
            e = baseline[fp]
            print(f"rocanalyze: stale baseline entry {fp} "
                  f"({e.get('rule', '?')} {e.get('file', '?')} "
                  f"{e.get('symbol', '?')}): the finding no longer "
                  f"exists -- remove it (--update-baseline)")
        for fp in unjustified:
            e = baseline[fp]
            print(f"rocanalyze: baseline entry {fp} "
                  f"({e.get('rule', '?')} {e.get('file', '?')}) has no "
                  f"`why:` justification -- explain it (justification: "
                  f"\"why: ...\") or fix the code")
        if stale or unjustified:
            rc = 1

    if not args.quiet:
        status = "clean" if rc == 0 else f"{len(new)} new finding(s)"
        print(f"rocanalyze[{engine.name}]: {len(rel_paths)} file(s), "
              f"{len(findings)} finding(s) "
              f"({len(known)} baselined) -- {status}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
