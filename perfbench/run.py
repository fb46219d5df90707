#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build), the snapshot files to .bench_run; both stay inside the
checkout.  The last line of stdout is the benchmark's JSON result; the exit
code is non-zero when the build fails, an output check fails or the run
times out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "rocpanda", "server.cpp")):
        sys.exit("perfbench: no rocpio sources next to perfbench/; run it "
                 "from a repository checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # A hung collective must not stall the caller: a run takes under
    # 2 x --seconds, so one past this limit counts as failed.
    timeout_s = 3 * a.seconds + 60
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--root", os.path.join(ROOT, ".bench_run")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or b""
        sys.stdout.write(out.decode(errors="replace")
                         if isinstance(out, bytes) else out)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(f"perfbench: killed after {timeout_s} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
