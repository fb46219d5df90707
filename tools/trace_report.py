#!/usr/bin/env python3
"""Critical-path report from a rocpio Chrome trace.

Reads the Chrome-tracing JSON written by the bench harnesses'
`--trace <path>` flag (bench/bench_trace.h).  The harnesses already print
the per-snapshot perceived / hidden / background / raw-write table and
emit it as `snapshot_timeline` JSON records (derived in C++ by
src/telemetry/timeline.cpp); this tool adds what they do not.

With `--critical-path` the stitched flow graph (spans carry
trace_id/span_id/parent_id in their args) is walked per request: starting
from each root span (normally the client's "snapshot.perceived") the walk
greedily follows the longest child at every step, yielding that request's
dominating span chain.  Chains are aggregated per snapshot and the
dominating chain -- the one accounting for the most span time -- is
reported step by step, with each step split into perceived time (inside
the root span's window) and hidden time (after the client already
returned).

Usage:  tools/trace_report.py TRACE.json --critical-path [--json OUT.json]

Exit status: 0 on success, 2 on malformed input or without
--critical-path.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

def load_events(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_report: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        print(f"trace_report: {path}: no traceEvents array", file=sys.stderr)
        sys.exit(2)
    return events


def process_names(events):
    names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            names[e.get("pid", 0)] = e.get("args", {}).get("name", "")
    return names


def _hidden_of(e, lo, hi):
    """Seconds of span `e` outside the [lo, hi) window (microsecond ts)."""
    s = e.get("ts", 0.0)
    t = s + e.get("dur", 0.0)
    return max(0.0, (t - s) - max(0.0, min(t, hi) - max(s, lo))) / 1e6


def _walk_chain(root, children_of, lo, hi, use_hidden):
    """Greedy dominating chain from `root`: at every depth, sibling spans
    with the same (cat, name) are merged into one step, and the child group
    with the most total (or, with use_hidden, hidden) time is followed."""
    chain, group, seen = [], [root], set()
    while group:
        cat = group[0].get("cat", "")
        name = group[0].get("name", "")
        chain.append({
            "cat": cat, "name": name, "count": len(group),
            "total_s": sum(e.get("dur", 0.0) for e in group) / 1e6,
            "hidden_s": sum(_hidden_of(e, lo, hi) for e in group),
        })
        kids = []
        for e in group:
            sid = e["args"]["span_id"]
            if sid not in seen:
                seen.add(sid)
                kids.extend(children_of.get(sid, []))
        if not kids:
            break
        groups = defaultdict(list)
        for k in kids:
            groups[(k.get("cat", ""), k.get("name", ""))].append(k)

        def score(g):
            if use_hidden:
                return sum(_hidden_of(e, lo, hi) for e in g)
            return sum(e.get("dur", 0.0) for e in g)
        group = max(groups.values(), key=score)
        if score(group) <= 0.0:
            break  # nothing of the tracked kind further down
    return chain


def critical_paths(events, pid):
    """Walks the stitched flow graph (trace_id/span_id/parent_id span args)
    of one pid and aggregates, per snapshot, the dominating span chain for
    perceived time and -- where background work survives the client's
    return -- for hidden time.  Returns per-(snapshot, mode) dicts,
    dominating chains first."""
    spans = [e for e in events
             if e.get("pid") == pid and e.get("ph") == "X"
             and e.get("args", {}).get("span_id")]
    by_trace = defaultdict(list)
    for e in spans:
        trace_id = e["args"].get("trace_id")
        if trace_id:
            by_trace[trace_id].append(e)

    # Per (snapshot, mode, chain signature): accumulated step times over
    # every request whose walk followed that signature.
    agg = {}
    for evs in by_trace.values():
        by_span = {e["args"]["span_id"]: e for e in evs}
        children = defaultdict(list)
        roots = []
        for e in evs:
            parent = e["args"].get("parent_id", 0)
            if parent and parent in by_span:
                children[parent].append(e)
            else:
                roots.append(e)
        if not roots:
            continue
        root = max(roots, key=lambda e: e.get("dur", 0.0))
        base = root.get("args", {}).get("detail", "") or "(no snapshot)"
        lo = root.get("ts", 0.0)
        hi = lo + root.get("dur", 0.0)

        for mode in ("perceived", "hidden"):
            chain = _walk_chain(root, children, lo, hi, mode == "hidden")
            if mode == "hidden" and not any(s["hidden_s"] > 0
                                            for s in chain):
                continue  # fully synchronous request: no hidden work
            sig = tuple((s["cat"], s["name"]) for s in chain)
            entry = agg.setdefault((base, mode, sig), {
                "snapshot": base,
                "mode": mode,
                "chain": [{"cat": c, "name": n, "count": 0,
                           "total_s": 0.0, "hidden_s": 0.0}
                          for c, n in sig],
                "requests": 0,
                "total_s": 0.0,
                "hidden_s": 0.0,
            })
            entry["requests"] += 1
            for step, s in zip(entry["chain"], chain):
                step["count"] += s["count"]
                step["total_s"] += s["total_s"]
                step["hidden_s"] += s["hidden_s"]
                entry["total_s"] += s["total_s"]
                entry["hidden_s"] += s["hidden_s"]

    # Dominating chain per (snapshot, mode): the one with the most time of
    # the mode's kind.
    best = {}
    for (base, mode, _sig), entry in agg.items():
        key = (base, mode)
        metric = "hidden_s" if mode == "hidden" else "total_s"
        if key not in best or entry[metric] > best[key][metric]:
            best[key] = entry
    return sorted(best.values(),
                  key=lambda d: (d["snapshot"], d["mode"], -d["total_s"]))


def print_critical_paths(rows):
    for row in rows:
        kind = ("hidden work" if row["mode"] == "hidden"
                else "perceived time")
        print(f"\n  critical path ({kind}) -- snapshot '{row['snapshot']}' "
              f"({row['requests']} request(s), chain {row['total_s']:.3f} s,"
              f" of which {row['hidden_s']:.3f} s hidden):")
        for depth, step in enumerate(row["chain"]):
            indent = "  " * depth
            label = f"{step['cat']}/{step['name']} x{step['count']}"
            print(f"    {indent}{'└ ' if depth else ''}{label:<36} "
                  f"{step['total_s']:>9.3f} s  "
                  f"(hidden {step['hidden_s']:.3f} s)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace JSON (from --trace)")
    ap.add_argument("--json", metavar="OUT",
                    help="also write the critical-path rows as JSON")
    ap.add_argument("--critical-path", action="store_true",
                    help="walk the stitched flow graph and report the "
                         "dominating span chain per snapshot")
    args = ap.parse_args(argv)
    if not args.critical_path:
        ap.error("nothing to report without --critical-path (the traced "
                 "harness itself prints the per-snapshot timeline)")

    events = load_events(args.trace)
    names = process_names(events)
    pids = sorted({e.get("pid", 0) for e in events if e.get("ph") == "X"})

    all_rows = []
    for pid in pids:
        cp_rows = critical_paths(events, pid)
        if not cp_rows:
            continue
        label = names.get(pid, f"pid {pid}")
        print(f"\n== {label} ==")
        print_critical_paths(cp_rows)
        for row in cp_rows:
            out = dict(row)
            out["type"] = "critical_path"
            out["config"] = label
            all_rows.append(out)

    if not all_rows:
        print("trace_report: no stitched spans found "
              "(was the run traced?)", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(all_rows, fh, indent=2)
        print(f"\nwrote {len(all_rows)} row(s) to {args.json}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
