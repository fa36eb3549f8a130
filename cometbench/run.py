#!/usr/bin/env python3
"""Run one workload of the COMET benchmark and print its result.

Usage (from the repository root):

    python3 cometbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the benchmark (CMake project in this directory, which compiles
the repository's comet library from src/) into .bench_build/, runs the
workload, prints a readable report, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run also writes
a Chrome trace and a per-span self-time table under .bench_build/traces/.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cometbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print("cometbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "comet", "CMakeLists.txt")):
        fail("no comet sources at %s/src/comet; run from a checkout of "
             "the repository" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "cometbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        fail("build failed: %s" % err)
    declared = declared_metrics(args.trace)
    os.makedirs(TRACES, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", TRACES]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with status %d" % (args.workload,
                                                    proc.returncode))
    report = json.loads(lines[-1])

    print("workload %s, seed %d, %s run" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    for key, value in report["notes"].items():
        print("  %s: %s" % (key, value))
    for name, m in sorted(report["metrics"].items()):
        print("  %-28s %16.6g %-9s n=%d" % (name, m["value"], m["unit"],
                                            m["n"]))
    for check in report["checks"]:
        print("  check %s: %s%s" % (
            "ok" if check["ok"] else "FAILED", check["name"],
            " (%s)" % check["detail"] if check["detail"] else ""))

    correct = report["correct"]
    metrics = {}
    for decl in declared:
        m = report["metrics"].get(decl["name"])
        if m is None or m["unit"] != decl["unit"] or m["value"] is None:
            print("  check FAILED: metric %s missing or with another unit"
                  % decl["name"])
            correct = False
            continue
        metrics[decl["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
