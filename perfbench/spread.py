#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread, (Q3 - Q1) / median from
statistics.quantiles(values, n=4). A metric is steady when its spread
is at most a third of its bound in BENCHMARK.json; a spread above the
bound itself fails. setup_s is reported but left out of both tests.

    python3 perfbench/spread.py --workload balanced --runs 10 [--seed0 1]

Run from the repository root. Raw result lines are appended to
--log (default .bench_build/perfbench/spread.jsonl). Exits 1 when a
run fails or a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--log", default=".bench_build/perfbench/spread.jsonl")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds",
                                 str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("run with seed %d failed (exit %d)" % (seed,
                                                            done.returncode))
        result = json.loads(lines[-1])
        report = json.loads(lines[-2]) if len(lines) > 1 else None
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "report": report, "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    unsteady, outside = [], []
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med
        bound = bounds[name]
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "OUTSIDE bound")
        if name != "setup_s":
            if spread > bound / 3:
                unsteady.append(name)
            if spread > bound:
                outside.append(name)
        print("%-32s median %-12.6g spread %.4f  bound %.2f  %s"
              % (name, med, spread, bound, verdict))
    print("not steady (spread > bound / 3, setup_s excluded): %s"
          % (", ".join(unsteady) or "none"))
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
