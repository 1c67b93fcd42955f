#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload busy_8core --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
simulator library from src/ plus the perfbench program) into
.bench_build/perfbench; later calls only rebuild what changed.  Build
output goes to stderr.  The program's report goes to stdout, and its
last line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding exactly the metrics BENCHMARK.json lists: the end_to_end ones
with --trace 0, the per_layer ones with --trace 1.  A traced run also
writes its spans and per-layer histograms to
.bench_build/spans-<workload>-seed<seed>.json.

Exit status: 0 with a result line, 1 when the run failed or its output
is malformed, 2 on a usage or build error (no result line either way).
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
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("busy_8core", "attack_abo", "exhibit_sweep")
# One workload run must end well inside three minutes, set-up included.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configure (once) and build the program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        fail(2, "simulator sources not found under " +
             os.path.join(ROOT, "src") + "; run from a full checkout")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    jobs = str(min(4, usable_cpus()))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def metric_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny horizons (self-test only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    spec = metric_spec(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_ROOT,
            "spans-{}-seed{}.json".format(args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills and reaps the child before raising.
        sys.stdout.write(e.stdout or "")
        fail(1, "run exceeded {} s".format(RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(1, "perfbench exited with status {}".format(proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(1, "last line is not a JSON result: " + lines[-1])

    metrics = {}
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(1, "metric {} was not measured".format(m["name"]))
        if got["unit"] != m["unit"]:
            fail(1, "metric {} has unit {}, BENCHMARK.json says {}".format(
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
