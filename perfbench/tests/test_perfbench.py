"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the benchmark (see perfbench/run.py).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
PINS = ROOT / "perfbench" / "pins.json"
WORKLOADS = ["fullsim_suite", "replay_bakeoff", "aes_leak"]


def run(workload, trace=0, seed=1, pins=None):
    """Run a tiny benchmark pass; returns (exit code, provenance, result)."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    if pins is not None:
        command += ["--pins", str(pins)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise AssertionError(f"no result (exit {done.returncode}):\n"
                             f"{done.stderr[-3000:]}")
    return (done.returncode, json.loads(lines[-2])["provenance"],
            json.loads(lines[-1]))


class TinyRuns(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    want = {m["name"]: m["unit"] for m in declared[table]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_two_runs_give_identical_counts_and_fingerprints(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, _ = run(workload)
                _, second, _ = run(workload)
                self.assertTrue(first["fingerprints"])
                for key in ("fingerprints", "simulated_per_round", "model",
                            "threads_observed"):
                    self.assertEqual(first[key], second[key], key)

    def test_a_corrupted_pinned_fingerprint_fails_the_run(self):
        pins = json.loads(PINS.read_text())
        units = pins["tiny"]["fullsim_suite"]
        unit = sorted(units)[0]
        units[unit] = "0" * 16
        corrupted = ROOT / ".bench_build" / "corrupted-pins.json"
        corrupted.parent.mkdir(exist_ok=True)
        corrupted.write_text(json.dumps(pins))
        try:
            code, _, result = run("fullsim_suite", trace=1, pins=corrupted)
        finally:
            corrupted.unlink()
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["fail_rate"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
