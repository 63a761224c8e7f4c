#!/usr/bin/env python3
"""Steadiness check for the standing benchmark.

Runs one workload once per seed and prints, for every metric of the
result line, the median and the spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
An end-to-end metric is steady when its spread stays under its bound in
BENCHMARK.json; a third of the bound leaves room for a second set of
runs to agree.

    python3 perfbench/steady.py --workload join-analytic --seeds 1-10
    python3 perfbench/steady.py --workload capped-chain --seeds 11-15 --trace 1

Run it from the root of the tree.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']}")
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(line["metrics"].items())
                                          if k in bounds or args.trace == "1"), flush=True)

    print(f"\n{'metric':36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:36} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
