#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/rodbench.exe with dune (build output goes to standard
error), then runs it with the same arguments.  The last line of its
standard output is the result JSON.  Exits non-zero without printing a
result when the repository sources are missing, the build fails or the
run overruns.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2ebench", "rodbench.exe")
NEEDED = ["dune-project", "lib", "examples/queries/monitoring.rql", "e2ebench/dune"]
RUN_TIMEOUT_S = 170


def main():
    missing = [path for path in NEEDED if not os.path.exists(path)]
    if missing:
        print("run.py: not at the root of the repository (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # --root pins the workspace to this directory; the shared dune cache
    # lives outside it, so it stays off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./e2ebench/rodbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
