#!/usr/bin/env python3
"""Builds bench_e2e (Release) and runs it; the arguments pass through.

Run from the repository root:

    python3 bench_e2e/run.py --workload quis_csv_serial --seed 2003 \
        --seconds 15 --trace 0

The first call configures and compiles the repository's libraries plus the
benchmark under .bench_build/bench_e2e (build output goes to stderr); later
calls only re-check the build. The last line of stdout is the benchmark's
JSON result. Any build or run failure exits non-zero.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")


def build():
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # CMake writes the build system only when configuring succeeds.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", "4"], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "bench_e2e")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
