#!/usr/bin/env python3
"""Builds and runs the nplus benchmark.

    python3 perfbench/run.py --workload <fig3_grid|city_sparse|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in
perfbench/ and the repository's `sweep-server` binary (release, offline)
into $CARGO_TARGET_DIR (default: .bench_build in the repository root),
then runs the benchmark binary. Build output goes to stderr; standard
output carries the benchmark's metric table and, as its last line, the
JSON result. Exits non-zero, without a result, when either build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fig3_grid", "city_sparse", "serve_mix")
# A run must end within 180 s; the build gets its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 400


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "nplus-server", "--bin", "sweep-server"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: build failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(target):
        return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "nplus-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "sweep-server"),
    ]
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
