#!/usr/bin/env python3
"""Run-to-run spread and trace-repeat checks for perfbench.

    python3 perfbench/spread.py [--workloads W,...] [--seeds 1,2,...]
    python3 perfbench/spread.py --trace-repeat [--workloads W,...]

The first form runs each workload once per seed (untraced) and prints, per
end-to-end metric, the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json. The second form runs each workload traced twice with one
seed and once with another, and checks that the exact counts
(engine.*_per_trial, shard.*_per_trial, serve.class_share.*) repeat bit for
bit under one seed and differ across seeds (dist_cache misses, fixed by the
workload's shape, need only repeat).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# dist_cache misses are fixed by the workload's shape (one α per fixed-exponent
# trial, one per walker under U(2, 3)), so they repeat but need not differ.
STRUCTURAL = ("engine.dist_cache_misses_per_trial",)
EXACT_PREFIXES = STRUCTURAL + ("engine.epochs_per_trial",
                  "engine.walker_phases_per_trial", "engine.retired_per_epoch",
                  "shard.rounds_per_trial", "shard.spills_per_trial",
                  "shard.loads_per_trial", "shard.spill_mib_per_trial",
                  "serve.class_share.", "serve.cache_hit_ratio")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d)" %
                         (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spreads(bench, workloads, seeds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in seeds:
            for name, value in run(workload, seed, bench["run_seconds"], 0).items():
                values.setdefault(name, []).append(value)
        print("%s (%d seeds)" % (workload, len(seeds)), flush=True)
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            print("  %-14s median %-12.6g IQR/median %.4f  bound %.2f  %-4s  %s" %
                  (name, q2, share, bounds[name],
                   "ok" if name == "setup_s" or share < bounds[name] / 3 else "WIDE",
                   " ".join("%.4g" % v for v in vals)), flush=True)


def trace_repeat(workloads):
    ok = True
    for workload in workloads:
        first, again, other = run(workload, 7, 10, 1), run(workload, 7, 10, 1), run(workload, 8, 10, 1)
        for name in sorted(first):
            if not name.startswith(EXACT_PREFIXES) or first[name] == 0:
                continue
            same = first[name] == again[name]
            differs = first[name] != other[name] or name in STRUCTURAL
            ok &= same and differs
            print("%-18s %-40s seed 7: %r / %r  seed 8: %r  %s" %
                  (workload, name, first[name], again[name], other[name],
                   "ok" if same and differs else "FAIL"))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-repeat", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.trace_repeat:
        return 0 if trace_repeat(workloads) else 1
    spreads(bench, workloads, [int(s) for s in args.seeds.split(",")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
