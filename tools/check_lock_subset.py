#!/usr/bin/env python3
"""Static-vs-dynamic lock-order cross-validation (DESIGN.md §11).

Runs the roccheck seed sweep with `--lock-graph-out`, merges the observed
runtime lock-order edges across scenarios, builds the static graph with
`rocanalyze --lock-graph-out`, and asserts the SUBSET property:

    every (from, to) edge the runtime checker observed
        must appear in the static lock-acquisition graph.

The static analysis deliberately over-approximates (unresolved calls fan
out); the one direction it must never err in is missing an ordering the
program actually performs — that would mean R5 cycle detection can miss
real deadlocks.  A violation here is therefore a bug in rocanalyze's call
resolution or lock tracking, not in the product code.

Usage:
    check_lock_subset.py --roccheck PATH/TO/roccheck --repo REPO_ROOT
                         [--keep DIR] [--quick]

Exit status: 0 subset holds, 1 violation (each missing edge printed with
its runtime witness stack), 2 harness error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Scenario -> seed budget.  Matches the CI sweep (EXPERIMENTS.md "Static
# deadlock sweep"); --quick cuts each to 4 seeds for the ctest wired into
# the default build.
SWEEP = (
    ("trochdf", 24),
    ("active_buffering", 16),
    ("fig3a", 8),
)


def run_sweep(roccheck, out_dir, quick):
    """Runs every scenario, returns merged {(from, to): stack}."""
    merged = {}
    for scenario, seeds in SWEEP:
        if quick:
            seeds = min(seeds, 4)
        path = os.path.join(out_dir, f"runtime-{scenario}.json")
        cmd = [roccheck, "--scenario", scenario, "--seeds", str(seeds),
               "--lock-graph-out", path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            # A finding in the product sweep is the roccheck ctests'
            # business; for the subset check the partial graph (flushed on
            # every exit path) is still usable evidence.
            print(f"note: {scenario} sweep exited {proc.returncode}; "
                  "using its partial graph", file=sys.stderr)
        if not os.path.exists(path):
            print(f"error: {scenario} sweep left no graph at {path}\n"
                  f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            return None
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for e in doc.get("edges", ()):
            merged.setdefault((e["from"], e["to"]), e.get("stack", []))
    return merged


def static_edges(repo, out_dir):
    """Builds the static graph; returns {(from, to)} or None."""
    path = os.path.join(out_dir, "static.json")
    cmd = [sys.executable,
           os.path.join(repo, "tools", "rocanalyze", "rocanalyze.py"),
           "--root", repo, "--no-baseline",
           "--lock-graph-out", path, "-q"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # Findings make rocanalyze exit 1; the graph is emitted regardless and
    # is all this check consumes.
    if not os.path.exists(path):
        print(f"error: rocanalyze wrote no graph (exit {proc.returncode})\n"
              f"{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {(e["from"], e["to"]) for e in doc.get("edges", ())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--roccheck", required=True,
                    help="path to the roccheck binary")
    ap.add_argument("--repo", required=True, help="repository root")
    ap.add_argument("--keep", default="",
                    help="directory to keep graph artifacts in "
                         "(default: a temp dir, deleted)")
    ap.add_argument("--quick", action="store_true",
                    help="cap every scenario at 4 seeds (ctest budget)")
    args = ap.parse_args(argv)

    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        out_dir, cleanup = args.keep, None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="lock-subset-")
        out_dir = cleanup.name
    try:
        runtime = run_sweep(args.roccheck, out_dir, args.quick)
        if runtime is None:
            return 2
        static = static_edges(args.repo, out_dir)
        if static is None:
            return 2

        missing = sorted(set(runtime) - static)
        print(f"lock-subset: runtime edges {len(runtime)}, "
              f"static edges {len(static)}, missing {len(missing)}")
        if missing:
            print("FAIL: runtime lock-order edges absent from the static "
                  "graph (rocanalyze under-approximated):")
            for frm, to in missing:
                print(f"  {frm} -> {to}")
                for line in runtime[(frm, to)]:
                    print(f"      {line}")
            return 1
        for frm, to in sorted(runtime):
            print(f"  ok: {frm} -> {to}")
        print("lock-subset: every observed runtime edge appears in the "
              "static graph")
        return 0
    finally:
        if cleanup is not None:
            cleanup.cleanup()


if __name__ == "__main__":
    sys.exit(main())
