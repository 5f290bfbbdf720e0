#!/usr/bin/env python3
"""Check the benchmark of record's decision fingerprints against a committed file.

Reads the output of an all-workloads run of the benchmark on stdin

    bash benchmark/run.sh --seconds 2 | scripts/check_fingerprints.py --seconds 2

echoes it unchanged, then compares every `decisions_fingerprint` it saw with
tests/golden/benchmark_fingerprints.txt, keyed by (workload, seed, seconds).
A workload's fingerprint depends on --seconds when its fingerprinted phase
grows with the run (mixed_sharded's open loop), so the file keys on it.

Exit status: 0 when every fingerprint matches and every workload the file
lists for the run's (seed, seconds) pairs was seen; 1 on a mismatch, a
workload missing from the run, or a fingerprint the file has no entry for;
2 on unreadable input. A change that alters decisions on purpose updates the
file in the same commit and says why.
"""

import argparse
import pathlib
import re
import sys

DEFAULT_FILE = (pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden" /
                "benchmark_fingerprints.txt")

HEADER_RE = re.compile(r"^== (\S+) \(seed (\d+)")
FINGERPRINT_RE = re.compile(r"^info\s+decisions_fingerprint = ([0-9a-f]+)\b")


def load_expected(path):
    """{(workload, seed, seconds): fingerprint} from the committed file."""
    expected = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"{path}:{number}: expected 'workload seed seconds fingerprint'")
        workload, seed, seconds, fingerprint = fields
        expected[(workload, int(seed), float(seconds))] = fingerprint
    return expected


def parse_run(lines):
    """[(workload, seed, fingerprint or None)] in the order the run printed them."""
    seen = []
    for line in lines:
        header = HEADER_RE.match(line)
        if header:
            seen.append([header.group(1), int(header.group(2)), None])
            continue
        fingerprint = FINGERPRINT_RE.match(line)
        if fingerprint and seen:
            seen[-1][2] = fingerprint.group(1)
    return [tuple(entry) for entry in seen]


def check(expected, seen, seconds):
    """Problems found, one line each (empty when the run matches)."""
    problems = []
    for workload, seed, fingerprint in seen:
        key = (workload, seed, seconds)
        if fingerprint is None:
            problems.append(f"{workload} seed {seed}: no decisions_fingerprint in the output")
        elif key not in expected:
            problems.append(f"{workload} seed {seed} seconds {seconds:g}: {fingerprint} has no "
                            "entry in the fingerprint file")
        elif expected[key] != fingerprint:
            problems.append(f"{workload} seed {seed} seconds {seconds:g}: got {fingerprint}, "
                            f"expected {expected[key]}")
    ran = {(workload, seed) for workload, seed, _ in seen}
    seeds = {seed for _, seed in ran}
    for workload, seed, secs in sorted(expected):
        if secs == seconds and seed in seeds and (workload, seed) not in ran:
            problems.append(f"{workload} seed {seed} seconds {seconds:g}: missing from the run")
    if not seen:
        problems.append("no workload headers in the input")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the --seconds the benchmark ran with")
    parser.add_argument("--file", type=pathlib.Path, default=DEFAULT_FILE,
                        help="committed fingerprints (default: %(default)s)")
    args = parser.parse_args(argv)
    try:
        expected = load_expected(args.file)
    except (OSError, ValueError) as e:
        print(f"check_fingerprints: {e}", file=sys.stderr)
        return 2
    lines = []
    for line in sys.stdin:
        sys.stdout.write(line)
        lines.append(line.rstrip("\n"))
    sys.stdout.flush()
    seen = parse_run(lines)
    problems = check(expected, seen, args.seconds)
    for problem in problems:
        print(f"check_fingerprints: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_fingerprints: {len(seen)} fingerprint(s) match {args.file.name}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
