#!/usr/bin/env python3
"""Build psb-perfbench from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. psb-perfbench is configured and built
under .bench_build/perfbench (incremental after the first run); build
output goes to stderr, so the last line of stdout is its JSON result.
Exits non-zero without a result when the build fails, e.g. when the
simulator sources are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("pointer-psb", "base-mix", "server-sweep")


def build():
    """Configure and build incrementally. Returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "psb-perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "psb-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--root", ROOT], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
