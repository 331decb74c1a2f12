#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (and the levy library under src/) with
CMake in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs the workload. Build output goes to
stderr; the last line of stdout is the run's JSON result. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mc_uncapped", "mc_random_capped", "shard_spill", "serve_cached"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no levy sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def check_metric_names(stdout, traced):
    """The binary's metric list must be BENCHMARK.json's, name for name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    got = list(json.loads(stdout.strip().splitlines()[-1])["metrics"])
    if sorted(got) != sorted(want):
        fail("metrics %s differ from BENCHMARK.json's %s" % (sorted(got), sorted(want)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-expected", choices=["0", "1"], default="0",
                        help="corrupt one expected result; the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", out_dir,
               "--corrupt-expected", args.corrupt_expected]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if not done.stdout.strip():
        fail("%s printed no result (exit %d)" % (args.workload, done.returncode))
    check_metric_names(done.stdout, args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
