#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and
builds perfbench/ (the libibp sources of the checkout, the ibpd
daemon and the load generator) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero without a
result when the checkout holds no libibp sources or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.hh"))
            and os.path.isfile(os.path.join(ROOT, "bench", "suites.hh"))):
        sys.stderr.write("perfbench: no libibp sources under %s\n" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
