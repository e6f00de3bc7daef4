#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They check that BENCHMARK.json keeps its contract, that every workload's
tiny-size smoke run (untraced and traced) prints exactly the metric names
and units BENCHMARK.json lists with zero failed operations, that the Rust
unit tests pass, and that the benchmark fails cleanly without the
repository's sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_limits(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, done.stderr[-3000:])
        self.assertEqual(result["failed"], 0, done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in expected])
        for m in expected:
            value = metrics[m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])
            if "bound" in m:
                self.assertGreater(value["value"], 0, m["name"])
        return done.stdout

    def test_untraced_runs_print_every_end_to_end_metric(self):
        bench = load_benchmark()
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, bench["end_to_end"])

    def test_traced_runs_print_every_per_layer_metric_and_the_overhead(self):
        bench = load_benchmark()
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"]):
                stdout = self.check_run(w["name"], 1, bench["per_layer"])
                self.assertIn("# tracing overhead", stdout)
                trace = os.path.join(ROOT, ".bench_trace", f"{w['name']}-seed5.json")
                with open(trace) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(spans)


class Isolation(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = run_bench("ingest", 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


class RustUnitTests(unittest.TestCase):
    def test_cargo_test(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])


if __name__ == "__main__":
    unittest.main()
