#!/usr/bin/env python3
"""Builds and runs the Shenjing end-to-end benchmark.

    python3 perfbench/run.py --workload mlp_table4 --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first run configures and builds the library with the
repository's own CMake definition plus the benchmark executable into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. Build output goes to stderr; the benchmark's own
stdout is passed through, so its last line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mlp_table4", "cnn_mnist", "wire_serve")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds; returns the executable path or None."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "sj_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    exe = os.path.join(bdir, "sj_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    sys.stdout.flush()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
