#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The report goes to stdout; its last line
is the JSON result object. Exits 0 on a correct run, 1 when any output
deviated from the expected one (the result line is still printed), and
another non-zero code without a result line when the build or the run
failed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-small", "batch-large", "serve-open")
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--parallel", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_stats_test")]).returncode

    work = os.path.join(out, "work-%d" % os.getpid())
    command = [
        os.path.join(out, "ga_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work,
    ]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            out, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        print("perfbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode if proc.returncode > 1 else 2
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
