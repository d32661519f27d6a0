#!/usr/bin/env python3
"""Write a baseline record for the current tree.

Runs every workload untraced once per seed and traced once at the default
seed, then writes the end-to-end medians and quartile spreads plus each
workload's per-layer metrics and its ranking of layers by profile self time:

    python3 perfbench/baseline.py --seeds 11-20 --out perfbench/baseline.json

Run from the repository root. Host times compare only with records made on
the same host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stderr}")
    return result, out.stderr


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = seed_list(args.seeds)

    record = {
        "schema": "overshadow-perfbench-baseline/v1",
        "tree": subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                               capture_output=True, text=True).stdout.strip(),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
        "note": "host times compare only with records from the same host; "
                "simulated metrics are unvalidated against hardware",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for seed in seeds:
            result, stderr = run(name, seed, seconds, 0)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            host = [l for l in stderr.splitlines() if "GOMAXPROCS" in l]
            record["host"]["stderr"] = host[0] if host else ""
        e2e = {}
        for k, v in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            e2e[k] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0}
        traced, _ = run(name, args.trace_seed, seconds, 1)
        layer = {k: v["value"] for k, v in sorted(traced["metrics"].items())}
        total = layer["bench.profile_s"]
        ranking = sorted(((k[:-len(".self_s")], v, v / total if total else 0.0)
                          for k, v in layer.items() if k.endswith(".self_s")),
                         key=lambda t: -t[1])
        record["workloads"][name] = {
            "end_to_end": e2e,
            "traced_seed": args.trace_seed,
            "per_layer": layer,
            "self_time_ranking": [{"layer": l, "self_s": s, "share": sh}
                                  for l, s, sh in ranking],
        }
        print(name, "done", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
