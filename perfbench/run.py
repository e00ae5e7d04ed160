#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload l2-sync --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune (first run: the whole library),
then runs it with the given arguments.  The benchmark prints its
result object as the last line of standard output; build output goes
to standard error.  Exits non-zero, without a result, when the build
fails or when run outside a checkout of the repository.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: no dune-project here; run from the repository root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
