#!/usr/bin/env python3
"""Summarise and compare perfbench result sets.

A result set is a file holding the concatenated standard output of one or
more perfbench runs. Each run prints a `host {...}` fingerprint line, a
`run {...}` line naming its workload, and its JSON result as the last line.

    python3 perfbench/compare.py SET.log            # medians and spreads
    python3 perfbench/compare.py BEFORE.log AFTER.log

With one set, prints for every workload and metric the median, the first
and third quartiles and the spread (IQR / median) over the set's runs. With
two sets, also prints the change of the median and flags every end-to-end
metric that got worse by more than its bound in BENCHMARK.json.

Sets measured on different hosts are never compared: if any two runs carry
different fingerprints (rustc version, CPU model, nproc), the tool prints
them and exits with status 2. Exit status 1 means a run was incorrect or a
metric regressed beyond its bound.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path):
    """Returns (fingerprints, {(workload, trace): [result, ...]})."""
    fingerprints, groups = set(), {}
    host = run = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("host "):
                host = json.loads(line[5:])
                fingerprints.add(json.dumps(host, sort_keys=True))
            elif line.startswith("run "):
                run = json.loads(line[4:])
            elif line.startswith("{") and run is not None:
                result = json.loads(line)
                groups.setdefault((run["workload"], run["trace"]), []).append(result)
                run = None
    return fingerprints, groups


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, None, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else None


def fmt(x):
    return "-" if x is None else f"{x:.6g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    sets = [load(p) for p in argv[1:]]
    fingerprints = set().union(*(fp for fp, _ in sets))
    if len(fingerprints) > 1:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        for fp in sorted(fingerprints):
            print(f"  {fp}", file=sys.stderr)
        return 2
    status = 0
    keys = sorted(set().union(*(g.keys() for _, g in sets)))
    for workload, trace in keys:
        runs = [g.get((workload, trace), []) for _, g in sets]
        bad = sum(1 for rs in runs for r in rs if not r["correct"])
        counts = "/".join(str(len(rs)) for rs in runs)
        print(f"== {workload} ({'traced' if trace else 'end-to-end'}, runs {counts}, incorrect {bad})")
        status |= bad > 0
        names = sorted(set().union(*(r["metrics"].keys() for rs in runs for r in rs)))
        for name in names:
            cols = []
            meds = []
            for rs in runs:
                vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                if not vals:
                    cols.append("(none)")
                    meds.append(None)
                    continue
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                cols.append(f"median {fmt(med)} q1 {fmt(q1)} q3 {fmt(q3)} spread {fmt(spread)}")
            line = f"  {name:<30} " + " | ".join(cols)
            if len(meds) == 2 and None not in meds and meds[0]:
                change = meds[1] / meds[0] - 1
                line += f" | change {change:+.2%}"
                if name in bounds and not trace:
                    bound, better = bounds[name]
                    worse = change > bound if better == "lower" else change < -bound
                    if worse:
                        line += f" REGRESSED (bound {bound:.0%})"
                        status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
