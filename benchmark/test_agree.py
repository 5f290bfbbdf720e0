"""Unit tests for agree.py (stdlib unittest; run by `run.sh --selftest`)."""

import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

import agree

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


class AgreeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.spec = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def tearDown(self):
        self.tmp.cleanup()

    def write_set(self, name, runs, **extra):
        d = os.path.join(self.tmp.name, name)
        os.makedirs(d, exist_ok=True)
        for i, (latency, rate, setup) in enumerate(runs):
            record = {"workload": "w", "seed": i, "correct": True, "attempted": 1,
                      "failed": 0, "metrics": {
                          "latency_us": {"value": latency, "unit": "us"},
                          "rate_per_s": {"value": rate, "unit": "1/s"},
                          "setup_s": {"value": setup, "unit": "s"}}}
            record.update(extra)
            with open(os.path.join(d, f"w-{i}-{len(extra)}.json"), "w") as f:
                json.dump(record, f)
        return d

    def run_agree(self, a, b):
        with redirect_stdout(io.StringIO()) as out:
            status = agree.main([a, b, "--spec", self.spec])
        return status, out.getvalue()

    def test_identical_sets_agree(self):
        runs = [(100, 50, 1.0), (101, 51, 1.1), (99, 49, 0.9)]
        a = self.write_set("a", runs)
        b = self.write_set("b", runs)
        self.assertEqual(self.run_agree(a, b)[0], 0)

    def test_change_within_bound_agrees(self):
        a = self.write_set("a", [(100, 50, 1.0)] * 3)
        b = self.write_set("b", [(109, 46, 1.2)] * 3)
        self.assertEqual(self.run_agree(a, b)[0], 0)

    def test_lower_is_better_regression_disagrees(self):
        a = self.write_set("a", [(100, 50, 1.0)] * 3)
        b = self.write_set("b", [(111, 50, 1.0)] * 3)
        status, out = self.run_agree(a, b)
        self.assertEqual(status, 1)
        self.assertIn("worse by 11.0%", out)

    def test_higher_is_better_regression_disagrees(self):
        a = self.write_set("a", [(100, 50, 1.0)] * 3)
        b = self.write_set("b", [(100, 44, 1.0)] * 3)
        self.assertEqual(self.run_agree(a, b)[0], 1)

    def test_improvement_agrees(self):
        a = self.write_set("a", [(100, 50, 1.0)] * 3)
        b = self.write_set("b", [(50, 100, 0.5)] * 3)
        self.assertEqual(self.run_agree(a, b)[0], 0)

    def test_wide_spread_disagrees(self):
        a = self.write_set("a", [(100, 50, 1.0), (130, 50, 1.0), (70, 50, 1.0), (100, 50, 1.0)])
        status, out = self.run_agree(a, a)
        self.assertEqual(status, 1)
        self.assertIn("spread", out)

    def test_setup_spread_is_exempt(self):
        a = self.write_set("a", [(100, 50, 1.0), (100, 50, 2.0), (100, 50, 0.5), (100, 50, 1.0)])
        self.assertEqual(self.run_agree(a, a)[0], 0)

    def test_missing_workload_disagrees(self):
        a = self.write_set("a", [(100, 50, 1.0)])
        empty = os.path.join(self.tmp.name, "empty")
        os.makedirs(empty)
        status, out = self.run_agree(a, empty)
        self.assertEqual(status, 1)
        self.assertIn("MISSING", out)

    def test_traced_and_smoke_runs_are_ignored(self):
        a = self.write_set("a", [(100, 50, 1.0)] * 3)
        b = self.write_set("b", [(100, 50, 1.0)] * 3)
        self.write_set("b", [(500, 5, 9.0)] * 3, trace=True)
        self.write_set("b", [(500, 5, 9.0)] * 3, smoke=True)
        self.assertEqual(self.run_agree(a, b)[0], 0)

    def test_spread_matches_quartile_definition(self):
        # statistics.quantiles([1..5], n=4) gives 1.5 and 4.5 around median 3.
        self.assertAlmostEqual(agree.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        self.assertEqual(agree.spread([7.0]), 0.0)

    def test_unreadable_spec_is_an_input_error(self):
        a = self.write_set("a", [(100, 50, 1.0)])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            status = agree.main([a, a, "--spec", os.path.join(self.tmp.name, "none.json")])
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
