#!/usr/bin/env python3
"""Build the simbench binary from this checkout and run one workload.

    python3 simbench/run.py --workload uniform64 --seed 1 --seconds 20 --trace 0

The build (CMake, Release) lands in .bench_build/simbench at the root of the
checkout and is incremental after the first run. Build output goes to
stderr; stdout is the binary's, whose last line is the JSON result. The
traced run (--trace 1) also writes its spans, one JSON object per line, to
.bench_build/simbench/spans-<workload>-seed<seed>.jsonl.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
BINARY = BUILD / "simbench"

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "simbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: a few-node fabric, for the benchmark's own tests")
    parser.add_argument("--tamper-twin", action="store_true",
                        help="perturb one twin so the repeatability check must fail")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size]
    if args.trace == "1":
        spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    if args.tamper_twin:
        cmd.append("--tamper-twin")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: simbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: simbench exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: simbench printed no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
