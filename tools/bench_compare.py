#!/usr/bin/env python3
"""Compare a fresh benchmark run against a committed baseline.

Two comparison modes, chosen per file pair:

  pairs     For Google Benchmark output (bench_micro): wall-clock numbers
            are machine- and load-dependent, so absolute times are never
            gated.  What IS stable is the *advantage ratio* of each
            legacy/optimized pair (marshal, ship, server-write): the
            legacy path's time divided by the optimized path's time.  A
            regression means the zero-copy pipeline lost its edge --
            exactly what this repo must not silently do.  With emitter
            files, `--mode pairs` compares EMITTER_PAIRS ratios instead
            (e.g. bench_shdf_scaling's linear-vs-indexed edge, whose
            absolute wall times are machine-dependent).

  absolute  For JsonEmitter output (bench_fig3a --smoke): the simulation
            substrate runs on virtual time, so metrics are deterministic
            and can be gated directly, respecting each metric's
            direction (MB/s up is good, seconds down is good).

With `--history HISTORY.jsonl` the candidate is additionally gated against
the *trajectory*: the median of each key over the last `--history-window`
recorded runs (one JSON object per line, appended by this tool).  The
latest committed snapshot can be a lucky outlier in either direction; the
rolling median is not.  A passing run is appended to the history file so
committing it advances the trajectory with the PR.

Usage:
  tools/bench_compare.py BASELINE.json CANDIDATE.json
      [--threshold 0.15] [--mode auto|pairs|absolute]
      [--history BENCH_history.jsonl] [--history-window N]

Exit status: 0 within threshold, 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

# (legacy benchmark, optimized benchmark) -- compared per size suffix.
# The optimized side must stay within --threshold of its baseline edge.
PAIRS = (
    ("BM_WireMarshalCopy", "BM_WireMarshalChain"),
    ("BM_BlockShipCopy", "BM_BlockShipZeroCopy"),
    ("BM_ServerWriteMaterialize", "BM_ServerWritePassThrough"),
    # Checksum kernel: portable slicing-by-8 vs the dispatched kernel.  On
    # x86 runners a silent fallback to slicing collapses this edge.
    ("BM_Crc64Sliced", "BM_Crc64"),
    # Recycled pool storage (not zero-filled again) vs fresh allocation.
    ("BM_FreshAllocCycle", "BM_BufferPoolCycle"),
)

# Emitter-file counterpart of PAIRS: (record name, param, legacy value,
# optimized value).  The advantage ratio legacy/optimized is compared per
# remaining-params + metric combination -- used with --mode pairs for
# emitter benches whose absolute wall times are machine-dependent but
# whose engine-vs-engine ratios are stable (bench_shdf_scaling).
EMITTER_PAIRS = (
    ("shdf_scaling", "engine", "linear", "indexed"),
)

HIGHER_IS_BETTER_UNITS = ("MB/s", "GB/s", "KB/s", "B/s", "ops/s", "items/s",
                          "/s")


def load(path):
    """Returns ({key: value}, {key: units}, kind) for either schema."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    values, units = {}, {}
    if isinstance(data, dict) and "benchmarks" in data:
        # With --benchmark_repetitions=N every repetition repeats the same
        # name; the median per name is what gets compared (single-rep runs
        # degenerate to the lone measurement).
        samples = {}
        for b in data["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            samples.setdefault(b["name"], []).append(float(b["real_time"]))
            units[b["name"]] = b.get("time_unit", "ns")
        values = {k: statistics.median(v) for k, v in samples.items()}
        return values, units, "google-benchmark"
    if isinstance(data, list):
        for rec in data:
            params = rec.get("params", {})
            key = rec["name"] + "[" + ",".join(
                f"{k}={params[k]}" for k in sorted(params)) + "]" \
                + ":" + rec.get("metric", "")
            values[key] = float(rec["value"])
            units[key] = rec.get("units", "")
        return values, units, "emitter"
    print(f"bench_compare: unrecognized schema in {path}", file=sys.stderr)
    sys.exit(2)


def pair_ratios(values):
    """legacy_time / optimized_time per (pair, size suffix) present."""
    ratios = {}
    for legacy, opt in PAIRS:
        for name, v in values.items():
            if not name.startswith(legacy + "/"):
                continue
            suffix = name[len(legacy):]
            peer = opt + suffix
            if peer in values and values[peer] > 0:
                ratios[f"{legacy}{suffix} vs {opt}{suffix}"] = \
                    v / values[peer]
    return ratios


def emitter_pair_ratios(values):
    """legacy_value / optimized_value per (record, params, metric) present."""
    ratios = {}
    for name, param, legacy, opt in EMITTER_PAIRS:
        legacy_tag = f"{param}={legacy}"
        for key, v in values.items():
            if not key.startswith(name + "[") or legacy_tag not in key:
                continue
            peer = key.replace(legacy_tag, f"{param}={opt}")
            if peer in values and values[peer] > 0:
                ratios[f"{key} vs {param}={opt}"] = v / values[peer]
    return ratios


def compare_pairs(base, cand, threshold, kind="google-benchmark"):
    make_ratios = emitter_pair_ratios if kind == "emitter" else pair_ratios
    base_r, cand_r = make_ratios(base), make_ratios(cand)
    common = sorted(set(base_r) & set(cand_r))
    if not common:
        print("bench_compare: no comparable legacy/optimized pairs found",
              file=sys.stderr)
        return 2
    failures = 0
    for key in common:
        b, c = base_r[key], cand_r[key]
        # The candidate's advantage ratio may shrink by at most
        # `threshold` relative to the baseline's.
        change = (c - b) / b
        status = "ok"
        if change < -threshold:
            status = "REGRESSION"
            failures += 1
        print(f"  {key}: advantage {b:.2f}x -> {c:.2f}x "
              f"({change:+.1%}) {status}")
    return 1 if failures else 0


def compare_absolute(base, cand, base_units, threshold):
    common = sorted(set(base) & set(cand))
    if not common:
        print("bench_compare: no common records to compare",
              file=sys.stderr)
        return 2
    failures = 0
    for key in common:
        b, c = base[key], cand[key]
        if b == 0:
            continue
        unit = base_units.get(key, "")
        higher_better = unit.endswith(HIGHER_IS_BETTER_UNITS)
        change = (c - b) / b
        regressed = change < -threshold if higher_better \
            else change > threshold
        status = "REGRESSION" if regressed else "ok"
        failures += bool(regressed)
        print(f"  {key}: {b:.3g} -> {c:.3g} {unit} ({change:+.1%}) "
              f"{status}")
    return 1 if failures else 0


def load_history(path, window):
    """Last `window` runs from a JSONL history file ([] when absent)."""
    entries = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError as e:
                    print(f"bench_compare: {path}:{lineno}: {e}",
                          file=sys.stderr)
                    sys.exit(2)
    except OSError:
        return []
    return entries[-window:]


def trajectory(entries):
    """Per-key median over the history entries (plus merged units)."""
    acc, units = defaultdict(list), {}
    for e in entries:
        for k, v in e.get("values", {}).items():
            acc[k].append(float(v))
        units.update(e.get("units", {}))
    return {k: statistics.median(v) for k, v in acc.items()}, units


def append_history(path, kind, values, units):
    entry = {"kind": kind, "values": values, "units": units}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative regression (default 0.15)")
    ap.add_argument("--mode", choices=("auto", "pairs", "absolute"),
                    default="auto",
                    help="auto: pairs for Google Benchmark files, "
                         "absolute for emitter files")
    ap.add_argument("--history", metavar="JSONL",
                    help="also gate against the median of the last "
                         "--history-window runs recorded in this file, and "
                         "append the candidate on success")
    ap.add_argument("--history-window", type=int, default=5,
                    help="trajectory window (default 5 runs)")
    args = ap.parse_args(argv)

    base, base_units, base_kind = load(args.baseline)
    cand, cand_units, cand_kind = load(args.candidate)
    if base_kind != cand_kind:
        print(f"bench_compare: schema mismatch ({base_kind} vs {cand_kind})",
              file=sys.stderr)
        return 2

    mode = args.mode
    if mode == "auto":
        mode = "pairs" if base_kind == "google-benchmark" else "absolute"

    def gate(ref, ref_units, label):
        print(f"bench_compare: {args.candidate} vs {label} "
              f"({mode}, threshold {args.threshold:.0%})")
        if mode == "pairs":
            return compare_pairs(ref, cand, args.threshold, base_kind)
        return compare_absolute(ref, cand, ref_units, args.threshold)

    rc = gate(base, base_units, args.baseline)

    if args.history:
        entries = load_history(args.history, args.history_window)
        if entries:
            traj, traj_units = trajectory(entries)
            traj_rc = gate(traj, traj_units,
                           f"{args.history} (median of last {len(entries)})")
            # "Nothing compared" against a sparse history is not an error
            # as long as the snapshot gate compared something.
            if traj_rc == 1:
                rc = max(rc, traj_rc)
        else:
            print(f"bench_compare: {args.history}: no history yet")
        if rc == 0:
            append_history(args.history, cand_kind, cand, cand_units)
            print(f"bench_compare: appended run to {args.history} "
                  f"(commit it to advance the trajectory)")

    print("bench_compare: " +
          ("ok" if rc == 0 else
           "REGRESSION beyond threshold" if rc == 1 else "nothing compared"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
