#!/usr/bin/env python3
"""Self-tests of the COMET benchmark.

Usage (from the repository root):

    python3 cometbench/selftest.py [--seed N]

Runs every workload through cometbench/run.py's build and checks:

  * every declared metric name matches [A-Za-z0-9_.-]+ and is unique;
  * each workload emits exactly the declared end-to-end metrics
    (untraced) and per-layer metrics (traced), passes its output
    checks, and reports at least 1000 requests with none failed;
  * virtual-time results (the outcome digest and the virtual metrics)
    are bit-identical across two runs and across COMET_THREADS=1 and 3
    vs the workload's configured count;
  * changing the seed changes the workload;
  * the layer predictions hold as counts: no gpusim tiles and no
    serving counters on numeric_decode, no kernel tiles on the serving
    workloads, no prefix work on chat_slo, no cluster work outside
    prefix_cluster, and no all-reduce at TP=1.

Exits 0 when every test passes. Takes a few minutes.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = ("chat_slo", "prefix_cluster", "offline_tp", "numeric_decode")
SERVING = ("chat_slo", "prefix_cluster", "offline_tp")
# End-to-end metrics on the virtual clock, per workload (numeric_decode
# has no simulated clock; its digest covers its token ids).
VIRTUAL = ("ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms", "tpot_p99_ms",
           "throughput_tok_s", "served_frac")

failures = []


def expect(ok, what):
    print("  %s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def report(binary, workload, seed, trace, threads=0):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--out", run.TRACES]
    env = dict(os.environ)
    env.pop("COMET_THREADS", None)
    if threads:
        env["COMET_THREADS"] = str(threads)
    proc = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    os.makedirs(run.TRACES, exist_ok=True)

    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names),
           "every metric name matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "metric names are unique")
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    declared = {w["name"] for w in spec["workloads"]}
    expect(declared == set(WORKLOADS), "BENCHMARK.json names the four "
                                       "workloads")

    for workload in WORKLOADS:
        print(workload)
        a = report(binary, workload, args.seed, 0)
        b = report(binary, workload, args.seed, 0)
        one = report(binary, workload, args.seed, 0, threads=1)
        three = report(binary, workload, args.seed, 0, threads=3)
        other = report(binary, workload, args.seed + 1, 0)
        traced = report(binary, workload, args.seed, 1)
        for name, r in (("untraced", a), ("traced", traced)):
            expect(r["correct"], "%s run passes its output checks" % name)
            expect(r["attempted"] >= 1000 and r["failed"] == 0,
                   "%s run sends >= 1000 requests and none fails" % name)
        expect(set(a["metrics"]) == e2e,
               "untraced run emits exactly the end-to-end metrics")
        expect(set(traced["metrics"]) == layers,
               "traced run emits exactly the per-layer metrics")
        digest = a["notes"]["outcome_digest"]
        expect(digest == b["notes"]["outcome_digest"],
               "outcome digest identical across two runs")
        expect(digest == one["notes"]["outcome_digest"] ==
               three["notes"]["outcome_digest"],
               "outcome digest identical at COMET_THREADS=1 and 3")
        expect(digest != other["notes"]["outcome_digest"],
               "another seed changes the workload")
        if workload in SERVING:
            for metric in VIRTUAL:
                same = (a["metrics"][metric]["value"] ==
                        b["metrics"][metric]["value"] ==
                        one["metrics"][metric]["value"] ==
                        three["metrics"][metric]["value"])
                expect(same, "%s bit-identical across runs and threads"
                       % metric)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        if workload == "numeric_decode":
            expect(m["gpusim.tiles_scheduled"] == 0,
                   "gpusim schedules no tiles")
            expect(m["kernel.w4ax_tiles"] > 0, "the W4Ax kernel runs")
            expect(m["serve.admitted"] == 0 and m["server.rejected"] == 0,
                   "no serving-stack work")
        else:
            expect(m["gpusim.tiles_scheduled"] > 0, "gpusim schedules tiles")
            expect(m["kernel.w4ax_tiles"] == 0,
                   "no W4Ax kernel calls (the serving stack only "
                   "simulates them)")
        if workload == "chat_slo":
            expect(all(m[k] == 0 for k in m if k.startswith("prefix.")),
                   "prefix.* = 0 (no prefix caching)")
        if workload != "prefix_cluster":
            expect(all(m[k] == 0 for k in m if k.startswith("cluster.")),
                   "cluster.* = 0 (no router)")
        else:
            expect(m["prefix.hit_rate"] > 0 and m["prefix.blocks_evicted"] > 0,
                   "prefix hits and evictions happen")
        if workload == "offline_tp":
            expect(m["tp.allreduce_us"] > 0, "TP=2 pays an all-reduce")
        else:
            expect(m["tp.allreduce_us"] == 0, "tp.allreduce_us = 0 at TP=1")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
