#!/usr/bin/env python3
"""Toy-size self-check of the benchmark (see ../README.md).

    python3 perfbench/tests/test_selfcheck.py

For every workload (including hub_slide, which runs but is not in
BENCHMARK.json): an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit and passes the oracle, on the default seed and
a second one; a traced run prints every per-layer metric and writes a
parseable Chrome trace whose otherData carries the same per-layer metrics.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("hub_slide", "fleet_shared", "fraud_durable")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace, trace_file=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    if trace_file:
        command += ["--trace-file", trace_file]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (proc.returncode,
                                                      proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfCheck(unittest.TestCase):

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]) & {m["name"] for m in metrics},
                         {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_runs_pass_the_oracle_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    result = run(workload, seed, 0)
                    self.check_result(result, SPEC["end_to_end"])
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_runs_write_every_per_layer_metric(self):
        trace_dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "work",
            "selfcheck")
        os.makedirs(trace_dir, exist_ok=True)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                path = os.path.join(trace_dir, workload + ".json")
                result = run(workload, 1, 1, path)
                self.check_result(result, SPEC["per_layer"])
                with open(path) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                per_layer = trace["otherData"]["per_layer"]
                for m in SPEC["per_layer"]:
                    self.assertIn(m["name"], per_layer)


if __name__ == "__main__":
    unittest.main()
