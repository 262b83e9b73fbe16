#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

Run from the root of the repository:

    python3 perfbench/run.py --serve-rate 360 --workload solve-minor-free \
        --seed 1 --seconds 20 --trace 0

Build output goes to stderr; the benchmark's own output, ending in one JSON
line, goes to stdout.  Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode or 1
    try:
        # run() kills and reaps the child if it overruns
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
