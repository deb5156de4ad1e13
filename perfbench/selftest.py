#!/usr/bin/env python3
"""Self-test of the host-cost benchmark, on a tiny scale of every workload.

    python3 perfbench/selftest.py        (from the repository root)

Checks that
  * every metric BENCHMARK.json names is printed, with its unit, in the
    mode that reports it (--trace 0 end-to-end, --trace 1 per-layer);
  * count metrics repeat exactly across two runs with the same seed;
  * the correctness checks reject a deliberately wrong expected campaign
    fingerprint (non-zero exit, "correct": false).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py accepts: BENCHMARK.json's, and `campaign`, which the
# benchmark keeps runnable by hand (README.md).
WORKLOADS = ("campaign", "campaign_traced", "explore_sweep")
SEED = 7
# Host-clock readings, the machine-speed factor and the process's RSS vary
# run to run; every other unit is a count or a ratio of counts and must
# repeat exactly.
MEASURED_UNITS = {"s", "ms", "ns", "1/s", "sim-s/s", "ref-s/s", "MB"}


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc, result


class BenchmarkSelfTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[w, trace] = [bench(w, trace), bench(w, trace)]

    def test_every_metric_printed_with_unit(self):
        for (w, trace), pair in self.runs.items():
            group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            for proc, result in pair:
                with self.subTest(workload=w, trace=trace):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in group})
                    for m in group:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        # The human-readable report names it too.
                        self.assertRegex(proc.stdout,
                                         rf"\b{m['name']}\s+\S+ {m['unit']}")

    def test_counts_repeat_exactly_at_a_fixed_seed(self):
        for (w, trace), (a, b) in self.runs.items():
            group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            for m in group:
                if m["unit"] in MEASURED_UNITS:
                    continue
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertEqual(a[1]["metrics"][m["name"]]["value"],
                                     b[1]["metrics"][m["name"]]["value"])

    def test_wrong_fingerprint_is_rejected(self):
        proc, result = bench("campaign", 0,
                             "--expect-fingerprint", "0123456789abcdef")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertIn("integrity fingerprint", proc.stdout)


if __name__ == "__main__":
    unittest.main()
