#!/usr/bin/env python3
"""The benchmark's own tests; they run the seconds-long miniatures.

    python3 perfbench/test_perfbench.py

Each test goes through run.py, so the first one builds mdst_perfbench.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args):
    """Run a miniature; return (exit code, stdout lines, parsed result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--mini",
         "--seconds", "0", "--out", ".bench_out/test"] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digest(lines):
    return [line for line in lines if line.startswith("digest ")]


class MetricsTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run("--workload", workload, "--seed", "3",
                                      "--trace", "0")
                self.assertEqual(code, 0)
                self.check(result, BENCH["end_to_end"])
                code, _, result = run("--workload", workload, "--seed", "3",
                                      "--trace", "1")
                self.assertEqual(code, 0)
                self.check(result, BENCH["per_layer"])


class FailureTest(unittest.TestCase):
    def test_capped_trial_counts_as_failed_without_aborting(self):
        code, lines, result = run("--workload", "sweep", "--trace", "1",
                                  "--max-messages", "2500")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertGreater(result["metrics"]["runtime.capped"]["value"], 0)
        self.assertTrue(any(" capped: " in line for line in lines))


class DeterminismTest(unittest.TestCase):
    def test_digest_does_not_depend_on_client_count(self):
        for workload in ("sweep", "adversity"):
            with self.subTest(workload=workload):
                _, one, _ = run("--workload", workload, "--clients", "1")
                _, two, _ = run("--workload", workload, "--clients", "2")
                self.assertEqual(len(digest(one)), 1)
                self.assertEqual(digest(one), digest(two))

    def test_seed_changes_the_inputs(self):
        _, a, _ = run("--workload", "sweep", "--seed", "1")
        _, b, _ = run("--workload", "sweep", "--seed", "2")
        self.assertNotEqual(digest(a), digest(b))


if __name__ == "__main__":
    unittest.main()
