#!/usr/bin/env python3
"""Chain-import benchmark entry point.

Builds the chainbench binary from the repository's sources on first use
(into .bench_build/ at the checkout root), then runs one workload with the
parameters workloads.json gives it (the shared ones, then the workload's own):

    python3 chainbench/run.py --workload hotspot_reads [--seed N] [--seconds S] [--trace 0|1]

The binary's stdout is passed through; its last line is the JSON result.
Build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "chainbench")
BINARY = os.path.join(BUILD_DIR, "chainbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("chainbench: the repository sources (src/) are not in this checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr, check=True)


def flag_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    # Block counts in workloads.json are sized for the run_seconds of
    # BENCHMARK.json; a run of other --seconds scales them.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        reference_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=reference_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"chainbench: build failed: {error}")

    params = dict(config["params"])
    params.update(config["workloads"][args.workload]["params"])
    params["reference_seconds"] = reference_seconds
    command = [
        BINARY,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work_dir={os.path.join(BUILD_ROOT, f'run-{os.getpid()}')}",
        f"--trace_path={os.path.join(BUILD_ROOT, f'trace-{args.workload}-seed{args.seed}.json')}",
    ] + [f"--{key}={flag_value(value)}" for key, value in params.items()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
