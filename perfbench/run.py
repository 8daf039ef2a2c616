#!/usr/bin/env python3
"""Builds and runs the Seraph end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload hub_slide --seed 1 --seconds 10 --trace 0

The first run configures and builds the engine libraries and the benchmark
with CMake under $CARGO_TARGET_DIR (default: .bench_build at the repository
root); later runs only re-check that build. Build output goes to stderr. The
benchmark's last line on stdout is its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hub_slide", "fleet_shared", "fraud_durable")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "seraph_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "seraph_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny windows and inputs (self-check only)")
    parser.add_argument("--trace-file",
                        help="where --trace 1 writes its Chrome trace")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources not found at %s/src; run from a "
              "full checkout" % ROOT, file=sys.stderr)
        return 2
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_root, "work")]
    if args.toy:
        command.append("--toy")
    if args.trace_file:
        command += ["--trace-file", args.trace_file]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
