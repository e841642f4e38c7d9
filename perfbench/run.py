#!/usr/bin/env python3
"""Run one workload of the MPA benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `mpa-serve` and the benchmark binary (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. The
last line of standard output is the run's JSON result; every metric with
its unit and sample count is printed above it, and the full result is
written to `perfbench/work/`. Exits 0 when every output check held.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("batch_infer", "batch_analytics", "serve_mixed")


def build(cmd, env):
    """Run a cargo build, its output going to stderr; exit 1 if it fails."""
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print(f"[perfbench] build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "-p", "mpa-serve", "--bin", "mpa-serve"], env)
    build(["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"], env)

    cmd = [
        os.path.join(target, "release", "mpa-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target, "release", "mpa-serve"),
    ]
    child = subprocess.Popen(cmd, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, forward)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
