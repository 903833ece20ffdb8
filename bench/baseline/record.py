#!/usr/bin/env python3
"""Records benchmark runs into a JSON file, with the machine they ran on.

Run from the repository root, one run at a time:

  python3 bench/baseline/record.py OUT.json --seeds 1,1,1,1,1 --seconds 20 [--trace]

Every workload runs once per listed seed, untraced, or traced with
--trace. The summary gives, for each workload and metric, the median of
the runs' values and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess

WORKLOADS = ["paper-cold", "verdict-stream", "store-warm", "store-resume"]


def machine():
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "go": go, "kernel": platform.release()}


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(lines[-1])
    res["seed"] = seed
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    doc = {"machine": machine(), "seconds": a.seconds, "seeds": seeds,
           "trace": int(a.trace), "runs": {}, "summary": {}}
    for w in WORKLOADS:
        runs = [run(w, s, a.seconds, int(a.trace)) for s in seeds]
        doc["runs"][w] = runs
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            entry = {"median": med, "unit": runs[0]["metrics"][name]["unit"]}
            if len(vals) > 1 and med != 0:
                q = statistics.quantiles(vals, n=4)
                entry["spread"] = (q[2] - q[0]) / med
            summary[name] = entry
        doc["summary"][w] = summary
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
