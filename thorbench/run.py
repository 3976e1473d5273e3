#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 thorbench/run.py --workload serve_hit --seed 1 --seconds 20 --trace 0

Workloads: serve_hit, learn_cold, serve_drift (see thorbench/README.md).
The program is built from source under $CARGO_TARGET_DIR (default
.bench_build) on the first run; build output goes to stderr so the last
line of stdout is the benchmark's JSON result.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("serve_hit", "learn_cold", "serve_drift")


def fail(message):
    print("thorbench: " + message, file=sys.stderr)
    return 2


def commit_id():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, check=False).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        return fail("no program sources next to the benchmark "
                    "(expected src/CMakeLists.txt)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "thorbench"))
    if not build(build_dir):
        return fail("build failed")
    # The benchmark's own arithmetic must hold before its numbers count.
    selftest = os.path.join(build_dir, "thorbench_test")
    if os.path.isfile(selftest):
        if subprocess.run([selftest, "--gtest_brief=1"], stdout=sys.stderr,
                          check=False).returncode != 0:
            return fail("self-test failed")

    work_dir = os.path.abspath(os.path.join(
        build_root, "run", "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid())))
    os.makedirs(work_dir, exist_ok=True)
    try:
        sys.stdout.flush()
        code = subprocess.run(
            [os.path.join(build_dir, "thorbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--commit", commit_id(), "--work-dir", work_dir],
            check=False).returncode
        traces = os.path.abspath(os.path.join(build_root, "traces"))
        for path in glob.glob(os.path.join(work_dir, "*.trace.json")):
            os.makedirs(traces, exist_ok=True)
            shutil.move(path, os.path.join(traces, os.path.basename(path)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
