#!/usr/bin/env python3
"""Builds the JIM serving benchmark from source and runs one workload.

Run from the repository root:

    python3 jimbench/run.py --workload lookahead-100k --seed 1 --seconds 10 --trace 0

The first run configures and builds jimbench/ (and the jim library it
links) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. Build output goes to stderr. The harness
self-tests run before every measurement. The benchmark's own output goes to
stdout, and its last line is the JSON result. See jimbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookahead-100k", "interleaved-10k")


def fail(message):
    print(f"jimbench: {message}", file=sys.stderr)
    sys.exit(1)


def step(command):
    """Runs a build or test step with its output on stderr."""
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"'{' '.join(command)}' exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"the jim sources are missing from {ROOT}: run this from a "
             "full checkout of the repository")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "-j", jobs,
          "--target", "jimbench", "jimbench_selftest"])
    step([os.path.join(build, "jimbench_selftest")])

    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([
        os.path.join(build, "jimbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
