#!/usr/bin/env python3
"""Builds the softbench driver from source and runs one benchmark workload.

Run from the repository root:

    python3 softbench/run.py --workload serve_lookup --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused by
later runs. The last line of stdout is the driver's JSON result; build
output goes to stderr. Exits non-zero, printing no result, when the engine
sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_lookup", "analytic_sc", "ingest_mixed")


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "softbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "softbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "softbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        print("softbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
