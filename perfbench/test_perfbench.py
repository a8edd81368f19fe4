#!/usr/bin/env python3
"""Self-test of the benchmark: short-mode runs of every workload, untraced
and traced, must pass the oracle and print every metric that
BENCHMARK.json names, with its unit; a deliberately corrupted oracle entry
must show up as failed operations.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine_mix", "router_q16", "server_rw"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--short",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


class PerfbenchSelfTest(unittest.TestCase):
    spec = load_spec()

    def check_metrics(self, result, wanted):
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_workloads_emit_every_metric(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    context, result = run(workload, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, self.spec[key])
                    for field in ("seed", "db_size", "query_edges", "nproc",
                                  "clients", "query_clients"):
                        self.assertIn(field, context)
                    if workload == "server_rw":
                        self.assertIn("flush_policy", context)
                    if trace:
                        span_file = os.path.join(ROOT, context["span_file"])
                        self.assertTrue(os.path.getsize(span_file) > 0)

    def test_corrupted_oracle_fails_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 0, "--corrupt_oracle")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
