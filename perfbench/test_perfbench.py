#!/usr/bin/env python3
"""Self-tests of the ledger benchmark. Run from the repository root:

  python3 perfbench/test_perfbench.py

Builds the ledger (as perfbench/run.py does), then checks that the metric
names it prints match BENCHMARK.json, and runs the C++ self-test of the
percentile helper, failure accounting, counter deltas and span self time.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()

    def listed_metrics(self):
        text = subprocess.check_output(
            [os.path.join(self.out, "ledger"), "--list-metrics"], text=True)
        listed = {"end_to_end": [], "per_layer": []}
        for line in text.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        return listed

    def test_metric_names_match_benchmark_json(self):
        listed = self.listed_metrics()
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in BENCHMARK[kind]]
            self.assertEqual(listed[kind], declared, kind)

    def test_workloads_are_the_ledgers(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, ["serve_read", "serve_mixed"])

    def test_cpp_selftest(self):
        result = subprocess.run([os.path.join(self.out, "selftest")],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_unknown_workload_is_refused(self):
        result = subprocess.run(
            [os.path.join(self.out, "ledger"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0",
             "--workdir", os.path.join(self.out, "work-refused")],
            capture_output=True, text=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
