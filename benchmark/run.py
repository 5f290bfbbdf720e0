#!/usr/bin/env python3
"""Benchmark of record: build the benchmark (Release), run workloads, check.

One workload, one process (the form BENCHMARK.json's command takes):

    benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1

prints the workload's metric lines and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Without --workload every workload runs, each in its own process:

    benchmark/run.sh [--seed N] [--runs K] [--seconds S] [--trace] [--smoke]
                     [--out DIR]
    benchmark/run.sh --selftest

--runs K repeats the set with seeds N..N+K-1 and --out DIR keeps one result
file per run for agree.py. --trace writes each workload's Chrome trace to
.bench_build/traces/. --smoke runs every workload at about 1/20 size as a
harness check. The exit status is non-zero when a build fails, a workload
fails a correctness check, or its metrics differ from BENCHMARK.json's.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run the benchmark's own binary with a margin under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


BUILD_DIR = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    out = os.path.join(BUILD_DIR, "benchmark")
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "taps_benchmark", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "taps_benchmark")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace, smoke=False, trace_out=None):
    """Run one workload process; returns (exit status, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        print(f"error   metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        result["correct"] = False
    status = proc.returncode
    if not result["correct"] and status == 0:
        status = 1
    return status, result


def one_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        return 2
    binary = build()
    status, result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                  args.trace == "1")
    if result is None:
        return status or 1
    print(json.dumps(result), flush=True)
    return status


def all_mode(args, spec):
    binary = build()
    seconds = args.seconds if args.seconds is not None else (
        2 if args.smoke else spec["run_seconds"])
    trace_dir = os.path.join(BUILD_DIR, "traces")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    failures = 0
    rows = []
    for run in range(args.runs):
        seed = args.seed + run
        for w in spec["workloads"]:
            name = w["name"]
            print(f"== {name} (seed {seed}{', traced' if args.trace else ''}"
                  f"{', smoke' if args.smoke else ''})", flush=True)
            t0 = time.monotonic()
            trace_out = os.path.join(trace_dir, f"{name}.json") if args.trace else None
            status, result = run_workload(binary, spec, name, seed, seconds, args.trace,
                                          args.smoke, trace_out)
            wall = time.monotonic() - t0
            if status != 0 or result is None:
                failures += 1
                print(f"FAILED  {name} (exit {status})", flush=True)
            if result is None:
                continue
            rows.append((name, seed, wall, result))
            if args.out:
                record = dict(result, workload=name, seed=seed, trace=args.trace,
                              smoke=args.smoke)
                path = os.path.join(args.out, f"{name}-seed{seed}.json")
                with open(path, "w") as f:
                    json.dump(record, f, indent=1)
    print("\nsummary")
    for name, seed, wall, result in rows:
        verdict = "ok" if result["correct"] else "INCORRECT"
        print(f"  {name:14s} seed {seed:<6d} {wall:6.1f} s  {verdict}  attempted "
              f"{result['attempted']} failed {result['failed']}")
    if failures:
        print(f"{failures} workload run(s) failed", flush=True)
    return 1 if failures else 0


def selftest():
    return subprocess.run([sys.executable, "-m", "unittest", "-q", "test_agree"],
                          cwd=HERE).returncode


def terminate(signum, _frame):
    # Raising here makes subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv):
    signal.signal(signal.SIGTERM, terminate)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", const="1", choices=["0", "1"], default="0")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        return selftest()
    try:
        spec = load_spec()
        if args.workload is not None:
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return one_workload(args, spec)
        args.trace = args.trace == "1"
        return all_mode(args, spec)
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
