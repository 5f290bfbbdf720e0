#!/usr/bin/env bash
# Benchmark of record for the TAPS library: builds benchmark/ (Release),
# runs the workloads and checks their outputs. See benchmark/README.md and
# `benchmark/run.sh --help`.
exec python3 "$(dirname "$0")/run.py" "$@"
