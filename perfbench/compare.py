"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records that ``run.py --out`` appends, one run per
line.  For every workload and end-to-end metric (untraced runs only) it
prints each side's median and quartiles, the share of pairs the change
won (runs paired by seed, ties count for neither), each side's spread
(quartile distance over median) and a verdict:

- ``better``: the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile distance;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: a side's spread exceeds the bound, unless every change
  run beats every parent run;
- ``same`` otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Output digests of
runs with the same workload and seed are compared too.  Exits 1 when a
metric is worse, a digest differs or a run was not correct.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Runs paired by seed, in the order the parent ran them."""
    by_seed = {}
    for rec in change:
        by_seed.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in parent:
        if by_seed.get(rec["seed"]):
            out.append((rec, by_seed[rec["seed"]].pop(0)))
    return out


def verdict(metric, parent, change, matched):
    bound, lower = metric["bound"], metric["better"] == "lower"
    name = metric["name"]

    def better(a, b):  # a better than b
        return a < b if lower else a > b

    p = [r["result"]["metrics"][name]["value"] for r in parent]
    c = [r["result"]["metrics"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    p_spread = (pq[2] - pq[0]) / pq[1]
    c_spread = (cq[2] - cq[0]) / cq[1]
    wins = sum(better(b["result"]["metrics"][name]["value"], a["result"]["metrics"][name]["value"])
               for a, b in matched)
    won = wins / len(matched) if matched else float("nan")
    worse_by = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
    if all(better(x, y) for x in c for y in p):
        result = "better"
    elif max(p_spread, c_spread) > bound:
        result = "unresolved"
    elif won >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0] and better(cq[1], pq[1]):
        result = "better"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "same"
    return pq, cq, p_spread, c_spread, won, len(matched), worse_by, result


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    parent, change = load(argv[0]), load(argv[1])
    failing = False
    print("%-13s %-15s %-31s %-31s %6s %6s %6s %5s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "sprd-p", "sprd-c", "worse", "won", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        matched = pairs(p_runs, c_runs)
        for metric in spec["end_to_end"]:
            pq, cq, ps, cs, won, n, worse_by, result = verdict(metric, p_runs, c_runs, matched)
            failing |= result == "worse"
            print("%-13s %-15s %-31s %-31s %6.3f %6.3f %+6.3f %5.2f %s (bound %.2f, %d+%d runs, %d pairs)"
                  % (workload, metric["name"], "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq,
                     ps, cs, worse_by, won, result, metric["bound"], len(p_runs),
                     len(c_runs), n))
        differ = [a["seed"] for a, b in matched if a["digest"] != b["digest"]]
        wrong = [r["seed"] for r in p_runs + c_runs if not r["result"]["correct"]]
        failing |= bool(differ or wrong)
        print("%-13s outputs: %s; not correct: %s" % (
            workload, "digests differ for seeds %s" % differ if differ else "digests equal",
            wrong or "none"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
