#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stap --seed 1 --seconds 10 --trace 0

The first run configures and builds the library sources plus the
perf_e2e binary into .bench_build/perfbench (build output goes to
stderr). Every run then executes perf_e2e, whose last stdout line is
the JSON result: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1 (Chrome traces land in .bench_build/perfbench-trace).
The exit code is perf_e2e's: 0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stap", "cg", "offload_stream", "tenants", "model_sweep")
BUILD_DIR = Path(".bench_build") / "perfbench"
TRACE_DIR = Path(".bench_build") / "perfbench-trace"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir):
    """Configure once, then bring perf_e2e up to date."""
    src_root = bench_dir.parent
    if not (src_root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {src_root / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perf_e2e", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    exe = BUILD_DIR / "perf_e2e"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    exe = build(Path(__file__).resolve().parent)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--trace={TRACE_DIR}")
    timeout = RUN_TIMEOUT_S * (len(WORKLOADS) if args.workload == "all"
                               else 1)
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"perf_e2e exceeded {timeout} s")
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
