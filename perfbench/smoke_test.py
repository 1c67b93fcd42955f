#!/usr/bin/env python3
"""Smoke self-test of the simulator benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through perfbench/run.py at a
tiny horizon (--smoke), untraced and traced, and checks that

  * each run is correct, attempted >= 1 and failed == 0;
  * every metric BENCHMARK.json names for the mode is printed on a
    "metric <name> <value> <unit>" line with its unit, and appears in
    the JSON result line;
  * in the traced run, the per-layer self times plus the reported
    unaccounted remainder add up to the traced wall time (as shares
    of it, and in the spans file's nanoseconds), with no layer and no
    remainder negative;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_SHARES = ("sim.self_pct", "core.self_pct", "mc.self_pct",
               "mitigation.self_pct", "workload.self_pct")
LAYERS = ("sim", "loop", "core", "mc", "mitigation", "workload")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def metric_lines(stdout):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def check_run(bench, workload, trace):
    tag = "{} trace={}".format(workload, trace)
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    check(proc.returncode == 0,
          "{}: exit status {}: {}".format(tag, proc.returncode,
                                          proc.stderr[-500:]))
    if proc.returncode != 0:
        return
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(result["correct"] is True, tag + ": result not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          tag + ": attempted {} failed {}".format(result["attempted"],
                                                   result["failed"]))
    printed = metric_lines(proc.stdout)
    spec = bench["per_layer" if trace else "end_to_end"]
    for m in spec:
        name, unit = m["name"], m["unit"]
        check(name in printed and printed[name][1] == unit,
              "{}: metric {} not printed with unit {}".format(tag, name,
                                                              unit))
        got = result["metrics"].get(name)
        check(got is not None and got["unit"] == unit,
              "{}: metric {} missing from the result".format(tag, name))
    check(set(result["metrics"]) == {m["name"] for m in spec},
          tag + ": result holds metrics BENCHMARK.json does not name")
    if not trace:
        return

    # Self shares + unaccounted remainder = 100% of the traced wall.
    shares = [printed[n][0] for n in SELF_SHARES]
    rest = printed["trace.unaccounted_pct"][0]
    check(all(s >= 0.0 for s in shares), tag + ": negative self share")
    check(rest >= -1e-6, tag + ": negative unaccounted remainder")
    check(abs(sum(shares) + rest - 100.0) < 1e-6,
          "{}: self shares {} + unaccounted {} != 100".format(
              tag, sum(shares), rest))
    spans_path = os.path.join(
        ROOT, ".bench_build", "spans-{}-seed1.json".format(workload))
    with open(spans_path) as f:
        spans = json.load(f)
    self_ns = sum(spans["layers"][l]["self_ns"] for l in LAYERS)
    wall_ns = spans["phases"]["wall_ns"]
    setup_ns = spans["phases"]["workload_setup_ns"]
    check(self_ns + setup_ns <= wall_ns,
          "{}: layer self times {} ns exceed the traced wall {} ns".format(
              tag, self_ns + setup_ns, wall_ns))
    for l in LAYERS:
        layer = spans["layers"][l]
        check(sum(layer["hist_log2_ns"]) == layer["calls"],
              "{}: {} histogram does not count every call".format(tag, l))


def check_isolated():
    """The benchmark alone, without the simulator sources, must fail."""
    iso = os.path.join(ROOT, ".bench_build", "isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "busy_8core", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=iso)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0, "isolated directory: exit status 0")
    check(not last[0].startswith("{"),
          "isolated directory: printed a result line")
    shutil.rmtree(iso, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_isolated()
    if failures:
        print("smoke test: {} check(s) failed".format(len(failures)))
        sys.exit(1)
    print("smoke test: all checks passed")


if __name__ == "__main__":
    main()
