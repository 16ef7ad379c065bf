#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (a minute or less).

    python3 perfbench/test_bench.py

Builds the binary through run.py, runs every workload with --toy in both
modes on two seeds, and checks that each run passes its output checks and
the SGD-mirror gate, and emits every metric BENCHMARK.json names for that
mode exactly once, with its unit and a finite value. Metrics of a layer a
workload exercises must be non-zero there.
"""
import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (1, 2)

# Per-layer metrics that must be non-zero on a workload that drives the layer.
EXERCISED = {
    "round_mlp": ["nn.forward_s", "nn.backward_s", "nn.optimizer_s",
                  "nn.group_average_s", "algorithms.train_client_s",
                  "data.batch_s", "core.evaluate_s",
                  "core.global_aggregate_s", "grouping.form_s"],
    "round_secure": ["secagg.setup_s", "secagg.mask_s", "secagg.unmask_s",
                     "compression.wire_s", "data.batch_s",
                     "secagg.recovered_clients"],
    "fleet_1m": ["backdoor.flame_s", "data.partition_s",
                 "data.label_matrix_s", "grouping.form_s",
                 "sampling.probabilities_s"],
}


def run_binary(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--toy"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def check_run(self, workload, seed, trace):
        code, result, proc = run_binary(self.binary, workload, seed, trace)
        where = f"{workload} seed {seed} trace {trace}"
        self.assertEqual(code, 0, f"{where}: {proc.stderr}")
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"}, where)
        self.assertTrue(result["correct"], where)
        self.assertGreaterEqual(result["attempted"], 1, where)
        self.assertEqual(result["failed"], 0, where)
        self.assertIn("sgd-mirror gate:", proc.stdout, where)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in expected), where)
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], f"{where} {m['name']}")
            self.assertTrue(math.isfinite(got["value"]),
                            f"{where} {m['name']}")
        if trace:
            for name in EXERCISED[workload]:
                self.assertGreater(result["metrics"][name]["value"], 0.0,
                                   f"{where} {name}")
        else:
            for m in expected:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0.0,
                                   f"{where} {m['name']}")

    def test_workloads_emit_every_metric(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        self.check_run(workload, seed, trace)

    def test_same_seed_same_accuracy(self):
        _, a, _ = run_binary(self.binary, "round_mlp", 3, 0)
        _, b, _ = run_binary(self.binary, "round_mlp", 3, 0)
        self.assertEqual(a["metrics"]["final_accuracy"]["value"],
                         b["metrics"]["final_accuracy"]["value"])


if __name__ == "__main__":
    unittest.main()
