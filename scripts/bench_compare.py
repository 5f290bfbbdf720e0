#!/usr/bin/env python3
"""Perf-regression gate for the taps-bench-v1 JSON documents.

Compares two BENCH_<name>.json files (a committed baseline and a fresh run,
both written by the bench binaries' --json flag) benchmark-by-benchmark on
the median and exits non-zero when any benchmark regressed by more than the
threshold, or when a baseline benchmark is missing from the current run (a
deleted or renamed bench must leave the committed baseline in the same
change, never silently drop out of the gate). Metrics (the non-timed
scalars) are reported when they drift but never gated — they are simulation
outputs, not performance.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
        [--warn-only]

Exit codes: 0 ok (or --warn-only), 1 regression past threshold or missing
baseline benchmark, 2 usage or input error. See docs/BENCHMARKING.md for the workflow.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "taps-bench-v1"


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if doc.get("schema") != SCHEMA:
        print(f"error: {path}: schema {doc.get('schema')!r} != {SCHEMA!r}",
              file=sys.stderr)
        raise SystemExit(2)
    return doc


def benchmarks(doc: dict) -> dict[str, dict]:
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def metrics(doc: dict) -> dict[str, float]:
    return {m["name"]: m["value"] for m in doc.get("metrics", [])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_<name>.json")
    parser.add_argument("current", help="freshly produced BENCH_<name>.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated median slowdown, fractional "
                             "(default 0.10 = +10%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions and missing benchmarks but "
                             "always exit 0 "
                             "(for noisy CI runners)")
    args = parser.parse_args()  # argparse exits 2 on usage errors itself
    if args.threshold <= 0:
        print("error: --threshold must be positive", file=sys.stderr)
        return 2

    base_doc = load(args.baseline)
    cur_doc = load(args.current)

    base = benchmarks(base_doc)
    cur = benchmarks(cur_doc)
    if not base:
        print(f"error: {args.baseline} contains no benchmarks", file=sys.stderr)
        return 2

    regressions: list[str] = []
    missing: list[str] = []
    improved = 0
    compared = 0
    for name in base:
        if name not in cur:
            print(f"  MISSING  {name}: in baseline but not in current run")
            missing.append(name)
            continue
        b, c = base[name]["median"], cur[name]["median"]
        compared += 1
        if b <= 0:
            continue
        ratio = c / b
        marker = "ok"
        if ratio > 1.0 + args.threshold:
            marker = "REGRESSED"
            regressions.append(f"{name}: {b:.6g}s -> {c:.6g}s ({ratio:.2f}x)")
        elif ratio < 1.0 - args.threshold:
            marker = "improved"
            improved += 1
        print(f"  {marker:>9}  {name}: median {b:.6g}s -> {c:.6g}s ({ratio:.2f}x)")
    for name in cur:
        if name not in base:
            print(f"      new  {name}: no baseline (not gated)")

    # Metric drift is informational only.
    bm, cm = metrics(base_doc), metrics(cur_doc)
    for name in sorted(bm.keys() & cm.keys()):
        if bm[name] != cm[name]:
            print(f"   metric  {name}: {bm[name]:.6g} -> {cm[name]:.6g} (not gated)")

    print(f"\ncompared {compared} benchmarks: {len(regressions)} regressed "
          f"(> {args.threshold:.0%}), {improved} improved, {len(missing)} missing")
    if regressions or missing:
        if regressions:
            print("\nregressions:", file=sys.stderr)
            for r in regressions:
                print(f"  {r}", file=sys.stderr)
        if missing:
            print("\nmissing from the current run (remove them from the "
                  "baseline if the bench was retired):", file=sys.stderr)
            for name in missing:
                print(f"  {name}", file=sys.stderr)
        if args.warn_only:
            print("(--warn-only: exiting 0 anyway)", file=sys.stderr)
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
