#!/usr/bin/env python3
"""Summarise one or two sets of perfbench runs and compare them.

Usage:
  python3 perfbench/compare.py SET_A [SET_B]

Each set is a directory of run records written by perfbench/run.py
(--record-dir); only untraced records (--trace 0) count. For every workload
and end-to-end metric of BENCHMARK.json it prints the sample size, median,
first and third quartile (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. Given two sets it also prints how far B's median moved
from A's, signed so that positive is worse.

It flags a spread above the metric's bound and, with two sets, medians that
differ by more than the bound in either direction, measured against the
better of the two; it exits 1 when anything is flagged. Runs made with different batch-kernel dispatches
(avx2 / scalar) are different code paths: it refuses to compare them.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    if not runs:
        sys.exit("compare: no untraced run records in %s" % directory)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_set(d) for d in sys.argv[1:]]
    dispatches = {r["meta"]["kernel_dispatch"]
                  for s in sets for runs in s.values() for r in runs}
    if len(dispatches) > 1:
        sys.exit("compare: refusing to compare runs of different kernel dispatches: %s"
                 % ", ".join(sorted(dispatches)))

    flagged = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if any(workload not in s for s in sets):
            continue
        print("%s (%s)" % (workload, " vs ".join(
            "%d runs, %d failed ops" % (len(s[workload]),
                                        sum(r["failed"] for r in s[workload]))
            for s in sets)))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = "  %-12s" % name
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[workload]]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                mark = ""
                if spread > bound:
                    mark, flagged = " SPREAD>BOUND", flagged + 1
                line += "  median %-11.5g q1 %-11.5g q3 %-11.5g spread %6.3f%s" % (
                    median, q1, q3, spread, mark)
            if len(medians) == 2 and min(medians) > 0:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                better = min(medians) if metric["better"] == "lower" else max(medians)
                gap = abs(medians[1] - medians[0]) / better
                line += "  worse_by %+.3f gap %.3f (bound %.2f)" % (worse, gap, bound)
                if gap > bound:
                    line, flagged = line + " GAP>BOUND", flagged + 1
            print(line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
