"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests -v

They compile the harness (perfbench/build.sh) on first use. The smoke runs
start Spark at warm-up scale and take a few minutes.
"""
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spread  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def java(classpath, *args):
    p = subprocess.run(["java", "-cp", classpath, *args], capture_output=True, text=True,
                       timeout=120)
    if p.returncode != 0:
        raise AssertionError(p.stdout + p.stderr[-3000:])
    return p.stdout


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 10.1]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread.spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(spread.spread([5.0] * 10), 0.0)

    def test_seed_ranges(self):
        self.assertEqual(spread.seeds_of("3-6"), [3, 4, 5, 6])
        self.assertEqual(spread.seeds_of("1,7"), [1, 7])


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + list(run.WORKLOADS)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in b["end_to_end"])}])
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.classpath = run.build()
        if cls.classpath is None:
            raise AssertionError("perfbench/build.sh failed")

    def test_selftest(self):
        self.assertIn("selftest ok", java(self.classpath, "repro.perfbench.SelfTest"))

    def test_metric_names_match_benchmark_json(self):
        names = json.loads(java(self.classpath, "repro.perfbench.SelfTest", "names"))
        b = load_benchmark()
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([[m["name"], m["unit"]] for m in b[key]], names[key], key)

    def test_smoke_run_of_each_workload_emits_every_metric(self):
        b = load_benchmark()
        for w in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    p = subprocess.run(
                        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w,
                         "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=900)
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    stamp_line, result_line = p.stdout.strip().split("\n")[-2:]
                    result = json.loads(result_line)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in b[key]})
                    stamp = json.loads(stamp_line)
                    self.assertEqual(stamp["stamp"]["workload"], w)
                    for f in stamp["failures"]:
                        self.assertNotIn("per-doc", f, "per-doc tagging disagrees with DocTaggingEval.run")

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
