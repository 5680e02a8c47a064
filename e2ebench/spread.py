#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, per workload.

Run from the repository root:

    python3 e2ebench/spread.py --seeds 10 [--workloads static_12k,churn_8k]

Runs run.py once per seed (seeds 1..N, so the pinned seed 0 is not
reused) and prints, per metric, the median over the runs and the distance
between the first and third quartile as a share of that median — the
figure to hold below each metric's `bound` in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import WORKLOADS


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            out = subprocess.run([sys.executable, "e2ebench/run.py", "--workload", workload,
                                  "--seed", str(seed), "--trace", str(args.trace)],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, runs in values.items():
            med = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f" (bound {bound})" if bound is not None else ""
            print(f"{workload:<13} {name:<24} median {med:<12.6g} spread {share:.4f}{note}  "
                  + " ".join(f"{v:.4g}" for v in runs))


if __name__ == "__main__":
    main()
