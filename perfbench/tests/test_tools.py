"""Tests of the benchmark's Python helpers and of BENCHMARK.json.

Run with `python3 perfbench/run.py --selftest`, which also builds the
binary the metric-table test compares against (PERFBENCH_BIN).
"""
import json
import os
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import steady  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = list(range(1, 11))
        q1, _, q3 = statistics.quantiles(values, n=4)  # 2.75, 8.25
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / 5.5)
        self.assertAlmostEqual(steady.spread(values), 1.0)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(steady.spread([3.0] * 10), 0.0)

    def test_one_outlier_barely_moves_it(self):
        calm = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertLess(steady.spread(calm[:-1] + [400]), 0.05)

    def test_parse_seeds(self):
        self.assertEqual(steady.parse_seeds("1-3,7"), [1, 2, 3, 7])


class ResultLineTest(unittest.TestCase):
    GOOD = {"correct": True, "attempted": 10, "failed": 1,
            "metrics": {"ops_per_s": {"value": 1.5, "unit": "1/s"}}}

    def check(self, **change):
        return run.validate_result(json.dumps(dict(self.GOOD, **change)))

    def test_accepts_the_contract_line(self):
        self.assertIsNotNone(self.check())

    def test_rejects_malformed_lines(self):
        self.assertIsNone(run.validate_result("not json"))
        self.assertIsNone(self.check(correct=1))
        self.assertIsNone(self.check(attempted=0))
        self.assertIsNone(self.check(attempted=2.5))
        self.assertIsNone(self.check(failed=-1))
        self.assertIsNone(self.check(metrics={"x": {"value": 1}}))
        extra = dict(self.GOOD, extra=1)
        self.assertIsNone(run.validate_result(json.dumps(extra)))


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in BENCHMARK["end_to_end"] +
                 BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for workload in BENCHMARK["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    @unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "binary not built")
    def test_metric_tables_match_the_binary(self):
        out = subprocess.run([os.environ["PERFBENCH_BIN"], "--list-metrics"],
                             capture_output=True, text=True, check=True)
        listed = json.loads(out.stdout)
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in listed[key]],
                [(m["name"], m["unit"]) for m in BENCHMARK[key]], key)


if __name__ == "__main__":
    unittest.main()
