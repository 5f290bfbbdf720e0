"""Tests for scripts/bench_compare.py (the perf-regression gate).

Run from ctest as `python3 -m unittest discover -s tests/scripts` — stdlib
only, no pytest/pip dependencies. The script is exercised end-to-end as a
subprocess so the exit-code contract (0 ok / 1 regression / 2 input error)
is what is actually pinned.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "bench_compare.py"


def doc(benchmarks, metrics=(), schema="taps-bench-v1"):
    return {
        "schema": schema,
        "benchmarks": [
            {"name": name, "median": median, "repeats": 5}
            for name, median in benchmarks
        ],
        "metrics": [{"name": name, "value": value} for name, value in metrics],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, content):
        path = self.tmp / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_text(json.dumps(content), encoding="utf-8")
        return path

    def run_compare(self, *args):
        return subprocess.run(
            [sys.executable, str(SCRIPT), *[str(a) for a in args]],
            capture_output=True,
            text=True,
            check=False,
        )

    def test_within_threshold_passes(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.05)]))
        result = self.run_compare(base, cur, "--threshold", "0.10")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok", result.stdout)

    def test_regression_detected(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.50)]))
        result = self.run_compare(base, cur, "--threshold", "0.10")
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSED", result.stdout)
        self.assertIn("regressions:", result.stderr)

    def test_warn_only_downgrades_regression_to_exit_zero(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 2.00)]))
        result = self.run_compare(base, cur, "--warn-only")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("REGRESSED", result.stdout)
        self.assertIn("--warn-only", result.stderr)

    def test_improvement_passes_and_is_reported(self):
        base = self.write("base.json", doc([("replan/n=10", 2.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.00)]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("improved", result.stdout)

    def test_malformed_json_exits_two(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", "{not json at all")
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 2)
        self.assertIn("cannot read", result.stderr)

    def test_missing_file_exits_two(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        result = self.run_compare(base, self.tmp / "does_not_exist.json")
        self.assertEqual(result.returncode, 2)

    def test_wrong_schema_exits_two(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.00)], schema="other-v9"))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 2)
        self.assertIn("schema", result.stderr)

    def test_empty_baseline_exits_two(self):
        base = self.write("base.json", doc([]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.00)]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 2)
        self.assertIn("no benchmarks", result.stderr)

    def test_nonpositive_threshold_exits_two(self):
        base = self.write("base.json", doc([("replan/n=10", 1.00)]))
        cur = self.write("cur.json", doc([("replan/n=10", 1.00)]))
        result = self.run_compare(base, cur, "--threshold", "0")
        self.assertEqual(result.returncode, 2)

    def test_new_benchmarks_are_not_gated(self):
        base = self.write("base.json", doc([("kept", 1.00)]))
        cur = self.write("cur.json", doc([("kept", 1.00), ("new/bench", 5.00)]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("new", result.stdout)

    def test_missing_baseline_benchmark_fails_the_gate(self):
        base = self.write("base.json", doc([("old/bench", 1.00), ("kept", 1.00)]))
        cur = self.write("cur.json", doc([("kept", 1.00)]))
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 1)
        self.assertIn("MISSING", result.stdout)
        self.assertIn("old/bench", result.stderr)

    def test_warn_only_downgrades_missing_benchmark_to_exit_zero(self):
        base = self.write("base.json", doc([("old/bench", 1.00), ("kept", 1.00)]))
        cur = self.write("cur.json", doc([("kept", 1.00)]))
        result = self.run_compare(base, cur, "--warn-only")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("MISSING", result.stdout)
        self.assertIn("--warn-only", result.stderr)

    def test_metric_drift_is_reported_but_not_gated(self):
        base = self.write(
            "base.json", doc([("kept", 1.00)], metrics=[("speedup", 1.5)])
        )
        cur = self.write(
            "cur.json", doc([("kept", 1.00)], metrics=[("speedup", 9.9)])
        )
        result = self.run_compare(base, cur)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("not gated", result.stdout)


if __name__ == "__main__":
    unittest.main()
