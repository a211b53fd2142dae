# Copyright 2026 The SkipNode Authors.
# Licensed under the Apache License, Version 2.0.
"""Tests for the result-line check in run.py and for BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

EXPECTED = {"latency_ms": "ms", "setup_s": "s"}


def line(metrics, **overrides):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": metrics}
    result.update(overrides)
    return json.dumps(result)


GOOD = {"latency_ms": {"value": 1.5, "unit": "ms"},
        "setup_s": {"value": 0.25, "unit": "s"}}


class CheckResultTest(unittest.TestCase):

    def test_valid_line_passes(self):
        self.assertEqual(run.check_result(line(GOOD), EXPECTED), [])

    def test_every_metric_needs_its_name(self):
        metrics = dict(GOOD)
        del metrics["setup_s"]
        self.assertEqual(run.check_result(line(metrics), EXPECTED),
                         ["metric setup_s is missing"])

    def test_every_metric_needs_its_declared_unit(self):
        metrics = dict(GOOD, setup_s={"value": 0.25, "unit": "ms"})
        problems = run.check_result(line(metrics), EXPECTED)
        self.assertEqual(len(problems), 1)
        self.assertIn("setup_s has unit 'ms'", problems[0])
        metrics = dict(GOOD, setup_s={"value": 0.25})
        self.assertEqual(run.check_result(line(metrics), EXPECTED),
                         ["metric setup_s needs exactly a value and a unit"])

    def test_undeclared_metric_is_rejected(self):
        metrics = dict(GOOD, extra={"value": 1.0, "unit": "ms"})
        self.assertEqual(run.check_result(line(metrics), EXPECTED),
                         ["metric extra is not declared"])

    def test_values_must_be_finite_numbers(self):
        for bad in (None, "1.0", True):
            metrics = dict(GOOD, latency_ms={"value": bad, "unit": "ms"})
            self.assertEqual(run.check_result(line(metrics), EXPECTED),
                             ["metric latency_ms has no finite value"])

    def test_counts_and_keys(self):
        self.assertIn("'attempted' is not a whole number >= 1",
                      run.check_result(line(GOOD, attempted=0), EXPECTED))
        self.assertIn("'failed' is not a whole number >= 0",
                      run.check_result(line(GOOD, failed=1.5), EXPECTED))
        self.assertIn("'correct' is not a boolean",
                      run.check_result(line(GOOD, correct=1), EXPECTED))
        extra = json.dumps(dict(json.loads(line(GOOD)), note="x"))
        self.assertEqual(len(run.check_result(extra, EXPECTED)), 1)
        self.assertEqual(len(run.check_result("not json", EXPECTED)), 1)


class BenchmarkSpecTest(unittest.TestCase):
    """BENCHMARK.json names every metric once, with a well-formed unit."""

    def setUp(self):
        self.spec = run.load_spec()

    def test_names_and_units(self):
        names = []
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[group]:
                self.assertRegex(entry["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
                self.assertLessEqual(len(entry["name"]), 64)
                names.append(entry["name"])
                if group != "workloads":
                    self.assertRegex(entry["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
                    self.assertIn(entry["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))

    def test_every_workload_says_why_in_one_line(self):
        for workload in self.spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])

    def test_setup_metric_and_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for bound in bounds.values():
            self.assertGreater(bound, 0.0)
            self.assertLessEqual(bound, 0.25)

    def test_declared_metrics_split_by_mode(self):
        self.assertIn("setup_s", run.declared_metrics(self.spec, trace=0))
        self.assertIn("tensor.gemm_tb_ms",
                      run.declared_metrics(self.spec, trace=1))


if __name__ == "__main__":
    unittest.main()
