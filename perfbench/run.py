#!/usr/bin/env python3
"""Repo benchmark entry point: builds mdst_perfbench, then runs one workload.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 16 --trace 0

Run from anywhere; the build goes to .bench_build/ and the program's outputs
(sink rows, spans) to .bench_out/<workload>/, both at the repository root.
Build output goes to stderr, so the last line of stdout is the program's JSON
result. All arguments are passed to mdst_perfbench (see README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "mdst_perfbench")


def build():
    """Configure once, then bring mdst_perfbench and libmdst_core up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s is missing; the benchmark builds the "
                     "library from the repository sources" % needed)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "mdst_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    return subprocess.run([PROGRAM] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
