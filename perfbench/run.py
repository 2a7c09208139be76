#!/usr/bin/env python3
"""Build and run the qurk benchmark (see BENCHMARK.json at the repo root).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/) and the `qurk-serve` binary
in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
runs one measurement. The last line of standard output is the run's
JSON result; build output goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("join-sort", "service-mix", "serve-wire")
BUILD_TIMEOUT_S = 840
# The benchmark measures for --seconds, plus set-up, warm-up and the
# traced run's extra layer timings.
RUN_SLACK_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout}s", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a qurk checkout: {needed} is missing")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "qurk-serve"],
    ]
    for extra in builds:
        code = run_bounded(
            ["cargo", "build", "--release", "--offline", "--quiet", *extra],
            BUILD_TIMEOUT_S,
            env=env,
            stdout=sys.stderr,
        )
        if code != 0:
            fail(f"build failed ({' '.join(extra)})", 1)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "qurk-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(release, "qurk-serve"),
    ]
    sys.stdout.flush()
    sys.exit(run_bounded(cmd, args.seconds + RUN_SLACK_S, cwd=root))


if __name__ == "__main__":
    main()
