#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree within BENCHMARK.json's bounds.

    python3 benchmark/agree.py SET1 SET2 [--spec BENCHMARK.json]

A set is a directory of result files as `run.sh --out DIR` writes them: one
JSON object per workload run, carrying "workload" and "metrics". Traced and
smoke runs are ignored. For every end-to-end metric of every workload this
prints each set's median and spread (the distance between the first and
third quartile as a share of the median) and the change between medians.

Exit status 1 when a metric's median in SET2 is worse than in SET1 by more
than its bound, when a metric's spread in either set exceeds its bound
(setup_s is exempt from the spread test), or when a workload or metric is
missing from a set; 2 when the input cannot be read.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPREAD_EXEMPT = {"setup_s"}


def load_set(directory):
    """{workload: {metric: [values]}} over the untraced, full-size runs."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") or record.get("smoke") or "workload" not in record:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            metrics.setdefault(name, []).append(float(m["value"]))
    return runs


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(m1, m2, better):
    """How much worse m2 is than m1, as a share of m1 (negative = better)."""
    if m1 == 0:
        return 0.0 if m2 == m1 else float("inf")
    change = (m2 - m1) / abs(m1)
    return change if better == "lower" else -change


def compare(spec, set1, set2):
    """Rows of (workload, metric, median1, median2, worse, spread1, spread2,
    problems) and the total problem count."""
    rows = []
    problems = 0
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            v1 = set1.get(name, {}).get(m["name"])
            v2 = set2.get(name, {}).get(m["name"])
            if not v1 or not v2:
                rows.append((name, m["name"], None, None, None, None, None, ["missing"]))
                problems += 1
                continue
            med1, med2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            worse = worse_by(med1, med2, m["better"])
            faults = []
            if worse > m["bound"]:
                faults.append(f"worse by {worse:.1%} > {m['bound']:.0%}")
            if m["name"] not in SPREAD_EXEMPT and max(s1, s2) > m["bound"]:
                faults.append(f"spread {max(s1, s2):.1%} > {m['bound']:.0%}")
            problems += len(faults)
            rows.append((name, m["name"], med1, med2, worse, s1, s2, faults))
    return rows, problems


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("set1")
    p.add_argument("set2")
    p.add_argument("--spec", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = p.parse_args(argv)
    try:
        with open(args.spec) as f:
            spec = json.load(f)
        set1, set2 = load_set(args.set1), load_set(args.set2)
    except (OSError, ValueError, KeyError) as e:
        print(f"agree.py: {e}", file=sys.stderr)
        return 2
    rows, problems = compare(spec, set1, set2)
    print(f"{'workload':14s} {'metric':20s} {'median1':>12s} {'median2':>12s} "
          f"{'worse':>7s} {'spread1':>7s} {'spread2':>7s}")
    for name, metric, med1, med2, worse, s1, s2, faults in rows:
        if med1 is None:
            print(f"{name:14s} {metric:20s} {'-':>12s} {'-':>12s}  MISSING")
            continue
        flag = "  " + "; ".join(faults) if faults else ""
        print(f"{name:14s} {metric:20s} {med1:12.6g} {med2:12.6g} {worse:7.1%} "
              f"{s1:7.1%} {s2:7.1%}{flag}")
    print("agree" if problems == 0 else f"disagree: {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
