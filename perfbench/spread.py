#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's results.

Reads the result files a set of untraced runs left in perfbench/out/ and
prints, for each workload and metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.

    python3 perfbench/spread.py [workload ...]
"""

import glob
import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def rows(workload):
    runs = []
    for path in sorted(glob.glob(os.path.join(OUT, f"{workload}-seed*-trace0.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    values = {}
    for run in runs:
        for table in ("metrics", "headline"):
            for name, m in run[table].items():
                values.setdefault((name, m["unit"]), []).append(m["value"])
    return len(runs), values


def main():
    workloads = sys.argv[1:] or ["train-replica", "train-sharded", "serve"]
    for w in workloads:
        n, values = rows(w)
        print(f"{w}: {n} runs")
        for (name, unit), xs in values.items():
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<24} {unit:<10} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}")


if __name__ == "__main__":
    main()
