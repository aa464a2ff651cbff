#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of untraced runs, one file per
run, named <workload>.<anything> (for example trial-n1000.7.out for seed
7); the last line of each file is the run's result object.  Files with
the same name in both directories form a pair, so give the two sides the
same seeds.  For every workload and end-to-end metric of BENCHMARK.json
this prints each side's median and quartiles, the share of pairs the
change won (ties count for neither), and a verdict:

  improved    at least ten pairs, the change won nine tenths of them, and
              the medians differ by more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, and the parent's spread is within the
              bound or every change run is worse than every parent run
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the bound, and not every change run is better
              than every parent run
  unchanged   otherwise

The exit code is 1 when any verdict is "regressed" or a run is incorrect.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, workloads):
    """{file name: (workload, result)} for every result file."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        workload = name.split(".", 1)[0]
        if workload not in workloads:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().split("\n")
        runs[name] = (workload, json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, bound, higher):
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = sum(1 for p, c in pairs if better(c, p))
    spread = (p3 - p1) / pm if pm else float("inf")
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)
    if (len(pairs) >= 10 and won >= 0.9 * len(pairs)
            and better(cm, pm) and abs(cm - pm) > p3 - p1):
        v = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, won


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parent = load(sys.argv[1], workloads)
    change = load(sys.argv[2], workloads)
    bad = [n for side in (parent, change) for n, (_, r) in side.items()
           if not r["correct"] or r["failed"]]
    for n in bad:
        print("incorrect run: %s" % n)

    fmt = "%-17s %-12s %36s %36s %6s  %s"
    print(fmt % ("workload", "metric", "parent median [q1, q3] (n)",
                 "change median [q1, q3] (n)", "won", "verdict"))
    regressed = False
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for wl, r in parent.values() if wl == w]
            cv = [r["metrics"][name]["value"] for wl, r in change.values() if wl == w]
            if not pv or not cv:
                continue
            pairs = [(parent[n][1]["metrics"][name]["value"],
                      change[n][1]["metrics"][name]["value"])
                     for n in parent if n in change and parent[n][0] == w]
            v, won = verdict(pv, cv, pairs, m["bound"], m["better"] == "higher")
            regressed |= v == "regressed"

            def side(vals):
                q1, q2, q3 = quartiles(vals)
                return "%.4g [%.4g, %.4g] (%d)" % (q2, q1, q3, len(vals))

            print(fmt % (w, name, side(pv), side(cv),
                         "%d/%d" % (won, len(pairs)), v))
    sys.exit(1 if regressed or bad else 0)


if __name__ == "__main__":
    main()
