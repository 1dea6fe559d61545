#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is configured and built in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build), the
seeded inputs are written under that directory and removed afterwards, and
the harness's stdout is passed through: its last line is the JSON result.
The exit code is the harness's (non-zero on any correctness failure).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dna-deep", "protein-dense", "corpus-genomes", "serve-mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources (src/) beside the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    with open(os.path.join(HERE, "expected_digests.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))

    workdir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    if expected:
        command += ["--expect-digest", expected]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
