#!/usr/bin/env python3
"""Builds and runs the reproduction benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kron|road|road-1lane \\
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

The first run configures and builds the library from ../src and the
benchmark program (Release) into .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to standard error, so the last
line of standard output is the program's JSON result. A traced run also
writes its Chrome trace_event JSON next to the build.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "gunrock.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="default")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    build()
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:], "--commit", commit()]
    if known.trace == "1":
        trace = BUILD / f"trace-{known.workload}-{known.seed}.json"
        cmd += ["--trace-out", str(trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
