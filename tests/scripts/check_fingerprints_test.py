"""Tests for scripts/check_fingerprints.py (the CI decision-fingerprint check).

Run from ctest as `python3 -m unittest discover -s tests/scripts` — stdlib
only. The script runs as a subprocess fed a run's output on stdin, so the
exit-code contract (0 match / 1 mismatch or missing / 2 bad file) and the
echo of its input are what is pinned.
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "check_fingerprints.py"

FILE = """\
# workload seed seconds fingerprint
coflow_admit 1 2 ad8d4637df208fc9
burst_admit 1 2 2e9bc7d6b171f958
mixed_sharded 1 2 136d11995adfd1b2
mixed_sharded 1 3 524c1e71c482d08e
"""


def run_output(entries):
    """Text shaped like `benchmark/run.sh` all-mode output."""
    lines = []
    for workload, seed, fingerprint in entries:
        lines.append(f"== {workload} (seed {seed})")
        lines.append("metric  latency_p50_us = 1.0 us")
        if fingerprint is not None:
            lines.append(f"info    decisions_fingerprint = {fingerprint} (episode 0, 150 responses)")
    lines.append("")
    lines.append("summary")
    return "\n".join(lines) + "\n"


ALL_SEED1 = [("coflow_admit", 1, "ad8d4637df208fc9"), ("burst_admit", 1, "2e9bc7d6b171f958"),
             ("mixed_sharded", 1, "136d11995adfd1b2")]


class CheckFingerprintsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.file = pathlib.Path(self._tmp.name) / "fingerprints.txt"
        self.file.write_text(FILE, encoding="utf-8")

    def check(self, text, seconds="2", file=None):
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--seconds", seconds, "--file", str(file or self.file)],
            input=text, capture_output=True, text=True, check=False)

    def test_matching_run_passes_and_echoes_its_input(self):
        text = run_output(ALL_SEED1)
        result = self.check(text)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stdout, text)

    def test_mismatch_fails(self):
        entries = list(ALL_SEED1)
        entries[1] = ("burst_admit", 1, "0000000000000000")
        result = self.check(run_output(entries))
        self.assertEqual(result.returncode, 1)
        self.assertIn("burst_admit seed 1 seconds 2: got 0000000000000000", result.stderr)

    def test_missing_workload_fails(self):
        result = self.check(run_output(ALL_SEED1[:2]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("mixed_sharded seed 1 seconds 2: missing from the run", result.stderr)

    def test_workload_without_fingerprint_fails(self):
        entries = list(ALL_SEED1)
        entries[0] = ("coflow_admit", 1, None)
        result = self.check(run_output(entries))
        self.assertEqual(result.returncode, 1)
        self.assertIn("coflow_admit seed 1: no decisions_fingerprint", result.stderr)

    def test_fingerprint_without_entry_fails(self):
        result = self.check(run_output(ALL_SEED1 + [("baseline_sim", 1, "ab54cad2344966d6")]))
        self.assertEqual(result.returncode, 1)
        self.assertIn("baseline_sim seed 1 seconds 2: ab54cad2344966d6 has no entry",
                      result.stderr)

    def test_seconds_select_the_entries(self):
        result = self.check(run_output([("mixed_sharded", 1, "524c1e71c482d08e")]), seconds="3")
        self.assertEqual(result.returncode, 0, result.stderr)
        result = self.check(run_output([("mixed_sharded", 1, "524c1e71c482d08e")]), seconds="2")
        self.assertEqual(result.returncode, 1)

    def test_empty_input_fails(self):
        self.assertEqual(self.check("").returncode, 1)

    def test_malformed_file_is_an_input_error(self):
        bad = pathlib.Path(self._tmp.name) / "bad.txt"
        bad.write_text("coflow_admit 1 ad8d4637df208fc9\n", encoding="utf-8")
        self.assertEqual(self.check(run_output(ALL_SEED1), file=bad).returncode, 2)

    def test_committed_file_parses(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT), "--seconds", "2"],
            input=run_output([("coflow_admit", 1, "ad8d4637df208fc9"),
                              ("burst_admit", 1, "2e9bc7d6b171f958"),
                              ("mixed_sharded", 1, "136d11995adfd1b2"),
                              ("baseline_sim", 1, "ab54cad2344966d6")]),
            capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 0, result.stderr)


if __name__ == "__main__":
    unittest.main()
