"""Self-tests of the benchmark.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

They use the ``--tiny`` inputs, so they check the harness, not the
program's speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, build_inputs, gate  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setUpModule():
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)


class TinyRuns(unittest.TestCase):
    """Every workload runs, passes its gate and prints every metric."""

    def test_every_workload_prints_every_metric(self):
        for name in WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = bench(name, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units
                    )
                    if trace:
                        self.assert_layers_add_up(result["metrics"])
                    else:
                        for metric in units:
                            self.assertGreater(result["metrics"][metric]["value"], 0)

    def assert_layers_add_up(self, metrics: dict):
        """Self times are not negative and, measured in the child, sum
        to no more than the wall time the harness measured around it."""
        from layers import SELF_LAYERS

        for layer in SELF_LAYERS:
            self.assertGreaterEqual(metrics[layer]["value"], 0.0, layer)
        total = sum(metrics[m]["value"] for m in SELF_LAYERS)
        self.assertLess(total, metrics["obs.traced_wall_s"]["value"])
        self.assertGreaterEqual(metrics["cli.unaccounted_s"]["value"], 0.0)


class Gate(unittest.TestCase):
    """The gate rejects output that differs from the oracle by one pair."""

    def check_rejects_corruption(self, name: str):
        workload = WORKLOADS[name]
        inputs = build_inputs(workload, 3, True, os.path.join(run.WORK, "inputs"))
        rows = inputs.oracle.copy()
        if workload.k_share:
            from workloads import top_k

            rows = rows[: top_k(workload, inputs)].copy()
        self.assertIsNone(gate(workload, inputs, rows))
        self.assertIsNotNone(gate(workload, inputs, rows[1:]))
        perturbed = rows.copy()
        perturbed[len(rows) // 2, 1] += 1
        self.assertIsNotNone(gate(workload, inputs, perturbed))
        if workload.k_share:
            swapped = rows.copy()
            swapped[[0, 1]] = swapped[[1, 0]]
            self.assertIsNotNone(gate(workload, inputs, swapped))

    def test_join(self):
        self.check_rejects_corruption("join-uniform")

    def test_topk(self):
        self.check_rejects_corruption("topk-clustered")

    def test_stream(self):
        self.check_rejects_corruption("stream-fleet")


class TracedOutput(unittest.TestCase):
    """Wrapping every layer does not change what the program writes."""

    def test_traced_output_is_byte_identical(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = WORKLOADS[name]
                inputs = build_inputs(
                    workload, 3, True, os.path.join(run.WORK, "inputs")
                )
                plain = run.run_rep(workload, inputs, False, 2)
                traced = run.run_rep(workload, inputs, True, 2)
                self.assertIsNone(plain.error)
                self.assertIsNone(traced.error)
                self.assertEqual(plain.digest, traced.digest)


if __name__ == "__main__":
    unittest.main()
