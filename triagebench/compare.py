#!/usr/bin/env python3
"""Diffs two sets of triage-benchmark runs, metric by metric and workload by
workload.

    python3 triagebench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of any number of run.py invocations
(only the "run_record" lines are read), for example the committed
triagebench/baseline.jsonl against a fresh set of runs. For every
(workload, metric) present on both sides it prints each side's median and
quartiles with the run count, then a mark:

  regressed   NEW's median is worse than BASE's by more than the metric's
              bound from BENCHMARK.json
  improved    NEW's median is better by more than BASE's own quartile
              spread, and NEW wins at least 9 of 10 runs paired by order
  unresolved  not regressed, but either side's quartile spread is wider
              than the bound and not every NEW run beats every BASE run
  unchanged   none of the above: no worse than the bound, no clear gain

Per-layer metrics have no bound; they get the medians and no mark. Exit
status is 1 when any metric regressed.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, metric): [values in file order]} plus units."""
    vals = defaultdict(list)
    units = {}
    with open(path) as f:
        for line in f:
            if '"run_record"' not in line:
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                vals[(rec["workload"], name)].append(m["value"])
                units[name] = m["unit"]
    return vals, units


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def mark(base, new, bound, higher_better):
    sign = 1 if higher_better else -1
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    gain = sign * (nmed - bmed)  # > 0 when NEW is better
    if -gain > bound * abs(bmed):
        return "regressed"
    all_better = min(sign * x for x in new) > max(sign * x for x in base)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0,
                 (n3 - n1) / abs(nmed) if nmed else 0)
    if spread > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if gain > (b3 - b1) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, units = load(argv[1])
    new, new_units = load(argv[2])
    units.update(new_units)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"] == "higher")
              for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] == "higher"
              for m in bench["end_to_end"] + bench["per_layer"]}

    regressed = False
    row = "%-17s %-34s %14s %22s %14s %22s %8s  %s"
    print(row % ("workload", "metric", "base median", "base [q1, q3] (n)",
                 "new median", "new [q1, q3] (n)", "delta", "mark"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        b1, bmed, b3 = quartiles(b)
        n1, nmed, n3 = quartiles(n)
        delta = "%+.1f%%" % (100 * (nmed - bmed) / abs(bmed)) if bmed else "-"
        if name in bounds:
            verdict = mark(b, n, *bounds[name])
            regressed |= verdict == "regressed"
        else:
            verdict = "-"
        print(row % (workload, "%s [%s%s]" % (
            name, units.get(name, ""),
            "" if name not in better else
            (", higher" if better[name] else ", lower")),
            "%.5g" % bmed, "[%.5g, %.5g] (%d)" % (b1, b3, len(b)),
            "%.5g" % nmed, "[%.5g, %.5g] (%d)" % (n1, n3, len(n)),
            delta, verdict))
    one_sided = len(set(base) ^ set(new))
    if one_sided:
        print("%d (workload, metric) pairs are on one side only" % one_sided)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
