#!/usr/bin/env python3
"""Builds the `leased` daemon and the `leasebench` binary from source, then
runs one benchmark workload.

    python3 leasebench/run.py --workload lockstep --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build products go to `$CARGO_TARGET_DIR`
(default `.bench_build`), run state (warm snapshots, traces, per-run
results) to `.bench_state`. The last line of standard output is the JSON
result; build output goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["lockstep", "pipelined", "mixed", "engine-stream"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_manifest = os.path.join("leasebench", "Cargo.toml")
    root_manifest = "Cargo.toml"
    for path in (bench_manifest, root_manifest, os.path.join("crates", "leased")):
        if not os.path.exists(os.path.join(root, path)):
            print(f"run.py: {path} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", root_manifest, "-p", "leased", "--bin", "leased"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", bench_manifest],
    ]
    for command in builds:
        built = subprocess.run(command, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(command)}", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "leasebench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--leased", os.path.join(release, "leased"),
        "--state", ".bench_state",
    ]
    # Its own process group, so a timeout also stops the daemons it started.
    bench = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return bench.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
