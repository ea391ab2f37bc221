#!/usr/bin/env python3
"""Build and run the imbar end-to-end benchmark.

    python3 perfbench/run.py --workload balanced --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark (perfbench/CMakeLists.txt)
is configured and built on first use, in Release mode, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. The benchmark's own output is passed through
unchanged: its last stdout line is the JSON result.

--selftest builds and runs the measurement self-tests, then checks that
the trace file they write loads as Chrome-trace JSON.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("balanced", "imbalanced", "durable")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(done.returncode or 1)
    return os.path.join(out, target)


def selftest():
    binary = build("perfbench_selftest")
    trace_path = os.path.join(build_dir(), "selftest-trace.json")
    done = subprocess.run([binary, trace_path])
    if done.returncode != 0:
        return done.returncode
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    ok = (len(events) == 2 and doc["otherData"]["dropped_spans"] == 1 and
          all(e["ph"] == "X" and {"name", "ts", "dur", "pid", "tid"} <= set(e)
              and {"id", "parent"} <= set(e["args"]) for e in events) and
          events[0]["ts"] == 0.0 and events[0]["dur"] == 2.0 and
          events[1]["args"]["id"] == (3 << 32) | 4)
    print("chrome trace: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be in [1, 600]")
    binary = build("perfbench")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + os.path.join(build_dir(), "run")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
