#!/usr/bin/env python3
"""Static-vs-dynamic hot-path allocation cross-validation (DESIGN.md §11).

Runs the roccheck seed sweep with `--alloc-report-out`, merges the charged
allocation scopes across scenarios, builds the static hot-closure report
with `rocanalyze --hot-report-out`, and asserts the SUBSET property:

    every ROC_ASSERT_NO_ALLOC scope the runtime interposer charged
        must be a hot function in the static R8 report.

The static analysis deliberately over-approximates (it lists a hot
function's allocation sites whether or not they are ROCANALYZE-ALLOW'd);
the one direction it must never err in is missing a hot root that
allocates at runtime — that would mean the R8 sweep can miss real
hot-path heap traffic.  A violation here is therefore a bug in
rocanalyze's root discovery or closure, not in the product code.

Scopes with zero charged allocations are the expected steady state and
always pass; a scope label absent from the static report entirely (even
with zero allocs) is reported as a warning, because it means a runtime
assertion exists that the static analysis cannot see.

Usage:
    check_alloc_subset.py --roccheck PATH/TO/roccheck --repo REPO_ROOT
                          [--keep DIR] [--quick]

Exit status: 0 subset holds, 1 violation (each charged-but-unknown scope
printed with its captured frames), 2 harness error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Scenario -> seed budget.  Matches the CI sweep (EXPERIMENTS.md
# "Zero-alloc sweep"); --quick cuts each to 4 seeds for the ctest wired
# into the default build.
SWEEP = (
    ("trochdf", 24),
    ("active_buffering", 16),
    ("fig3a", 8),
)


def run_sweep(roccheck, out_dir, quick):
    """Runs every scenario, returns merged {label: {...stats}}."""
    merged = {}
    for scenario, seeds in SWEEP:
        if quick:
            seeds = min(seeds, 4)
        path = os.path.join(out_dir, f"runtime-{scenario}.json")
        cmd = [roccheck, "--scenario", scenario, "--seeds", str(seeds),
               "--alloc-report-out", path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"note: {scenario} sweep exited {proc.returncode}; "
                  "using its partial report", file=sys.stderr)
        if not os.path.exists(path):
            print(f"error: {scenario} sweep left no report at {path}\n"
                  f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            return None
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for s in doc.get("scopes", ()):
            e = merged.setdefault(
                s["label"],
                {"entries": 0, "allocs": 0, "bytes": 0, "frames": []})
            e["entries"] += s.get("entries", 0)
            e["allocs"] += s.get("allocs", 0)
            e["bytes"] += s.get("bytes", 0)
            if s.get("frames") and not e["frames"]:
                e["frames"] = s["frames"][:24]
    return merged


def static_hot(repo, out_dir):
    """Builds the static hot report; returns its hot-function label set."""
    path = os.path.join(out_dir, "static-hot.json")
    cmd = [sys.executable,
           os.path.join(repo, "tools", "rocanalyze", "rocanalyze.py"),
           "--root", repo, "--no-baseline",
           "--hot-report-out", path, "-q"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # Findings make rocanalyze exit 1; the report is emitted regardless
    # and is all this check consumes.
    if not os.path.exists(path):
        print(f"error: rocanalyze wrote no report (exit {proc.returncode})\n"
              f"{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return set(doc.get("hot_functions", {}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--roccheck", required=True,
                    help="path to the roccheck binary")
    ap.add_argument("--repo", required=True, help="repository root")
    ap.add_argument("--keep", default="",
                    help="directory to keep report artifacts in "
                         "(default: a temp dir, deleted)")
    ap.add_argument("--quick", action="store_true",
                    help="cap every scenario at 4 seeds (ctest budget)")
    args = ap.parse_args(argv)

    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        out_dir, cleanup = args.keep, None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="alloc-subset-")
        out_dir = cleanup.name
    try:
        runtime = run_sweep(args.roccheck, out_dir, args.quick)
        if runtime is None:
            return 2
        static = static_hot(args.repo, out_dir)
        if static is None:
            return 2

        charged = {l: s for l, s in runtime.items() if s["allocs"] > 0}
        missing = sorted(l for l in charged if l not in static)
        unknown = sorted(l for l in runtime
                         if l not in static and l not in missing)
        print(f"alloc-subset: runtime scopes {len(runtime)} "
              f"({len(charged)} charged), static hot functions "
              f"{len(static)}, violations {len(missing)}")
        for label in unknown:
            print(f"  warn: scope '{label}' (0 charged) is not a static "
                  "hot function — stale ROC_ASSERT_NO_ALLOC label?")
        if missing:
            print("FAIL: runtime-charged scopes absent from the static hot "
                  "closure (rocanalyze under-approximated):")
            for label in missing:
                s = charged[label]
                print(f"  {label}: {s['allocs']} alloc(s), "
                      f"{s['bytes']} byte(s) over {s['entries']} entries")
                for line in s["frames"]:
                    print(f"      {line}")
            return 1
        for label in sorted(runtime):
            s = runtime[label]
            mark = "charged" if s["allocs"] else "clean"
            print(f"  ok[{mark}]: {label} ({s['entries']} entries, "
                  f"{s['allocs']} allocs)")
        print("alloc-subset: every charged runtime scope appears in the "
              "static hot closure")
        return 0
    finally:
        if cleanup is not None:
            cleanup.cleanup()


if __name__ == "__main__":
    sys.exit(main())
