"""Self-tests of the benchmark itself: tiny smoke runs and the gate's teeth.

    python3 perfbench/selftest.py

Not collected by pytest (the file name does not match test_*.py), because
the smoke runs import the package afresh several times per workload.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import OP, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Result  # noqa: E402


def tiny_ops(name: str, seed: int) -> list:
    with tempfile.TemporaryDirectory() as work:
        return WORKLOADS[name](run.import_api(), seed, work, True)[0]


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean_at_tiny_size(self):
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result, report, _ = run.measure(name, 3, 0, trace, tiny=True)
                    self.assertEqual((result["correct"], result["failed"]), (True, 0), report["failures_by_type"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = run.LAYER_UNITS if trace else run.END_TO_END
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    self.assertIsNone(report["node_budget_env"])

    def test_inputs_follow_the_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = run.Run(tiny_ops(name, 5)).input_digest()
                again = run.Run(tiny_ops(name, 5)).input_digest()
                other = run.Run(tiny_ops(name, 6)).input_digest()
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_benchmark_json_names_every_metric(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.api = run.import_api()
        stream = self.api.generators.gen_d_degenerate(14, 1, 3)
        self.pairs = [(e.u, e.v) for e in stream.edges]
        self.run = self.api.runtime.run_advice(stream, 1, mode="robust", model="tape")
        self.assertTrue(self.run.oracle.partition, "fixture should exercise bundles")

    def test_untouched_run_passes(self):
        checks.check_advice_run(self.run, self.pairs, "robust", "tape")

    def test_tampered_coloring_is_flagged(self):
        colors = self.run.report.coloring.assignment
        a, b = next(
            (p, q) for p in colors for q in colors if p != q and set(p) & set(q)
        )
        colors[a] = colors[b]
        with self.assertRaises(CheckFailed):
            checks.check_advice_run(self.run, self.pairs, "robust", "tape")

    def test_tampered_record_is_flagged(self):
        records = self.run.oracle.records
        i = next(k for k, adv in enumerate(self.run.oracle.per_edge) if adv.mode == 1)
        bits = records[i].bits
        records[i] = self.api.advice.AdviceRecord(bits[:-1] + ("1" if bits[-1] == "0" else "0"))
        with self.assertRaises(CheckFailed):
            checks.check_advice_run(self.run, self.pairs, "robust", "tape")

    def test_wrong_bit_count_is_flagged(self):
        self.run.report.advice_bits_read += 1
        with self.assertRaises(CheckFailed):
            checks.check_advice_run(self.run, self.pairs, "robust", "tape")


def recurse(k: int = 0) -> int:
    return recurse(k + 1) + 1


class FailureAccountingTest(unittest.TestCase):
    def test_recursion_error_counts_as_failed_not_dropped(self):
        bad = Op("recurses", ("recurses",), recurse, lambda v: Result(1, "x"))
        result, report, _ = run.measure("degenerate", 1, 0, False, tiny=True, ops_hook=lambda ops: ops + [bad])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], report["ops_per_pass"])
        self.assertEqual(report["failures_by_type"], {"RecursionError": 1})
        self.assertFalse(result["correct"])
        share = result["metrics"]["ok_share"]["value"]
        self.assertAlmostEqual(share, 1 - 1 / result["attempted"])
        self.assertTrue(any(row.get("failed") for row in report["manifest"]))

    def test_output_that_changes_between_passes_fails(self):
        counter = iter(range(10))
        op = Op("drifts", ("drifts",), lambda: next(counter), lambda v: Result(1, checks.digest(v)))
        r = run.Run([op])
        r.run_pass()
        r.run_pass()
        self.assertEqual((r.attempted, r.failed), (2, 1))
        self.assertEqual(dict(r.failures), {"CheckFailed": 1})

    def test_failed_op_is_slowest_in_quantiles(self):
        self.assertTrue(math.isinf(run.quantile([1.0] * 9 + [math.inf], 0.95)))
        self.assertEqual(run.quantile([1.0] * 9 + [math.inf], 0.5), 1.0)


class TracerTest(unittest.TestCase):
    def test_install_rebinds_and_uninstall_restores(self):
        api = run.import_api()
        original = api.oracle.exact_color
        tracer = Tracer()
        tracer.install(run.PACKAGE, vars(api))
        try:
            self.assertIsNot(api.oracle.exact_color, original)
            self.assertIs(api.oracle.exact_color, api.adversaries.exact_color)
            self.assertTrue(issubclass(api.oracle.Graph, api.graphs.Graph))
            self.assertEqual(api.oracle.Graph.__name__, "Graph")
            stream = api.generators.gen_d_degenerate(12, 2, 1)
            tracer.run_op(0, lambda: api.runtime.run_advice(stream, 2))
        finally:
            tracer.uninstall()
        self.assertIs(api.oracle.exact_color, original)
        table = tracer.summary()
        for name in ("runtime.run_advice", "oracle.build_advice", "graphs.degeneracy", "graphs.Graph",
                     "runtime.simulate", "runtime.AdviceAlgorithm.step", "advice.pack_record"):
            self.assertGreater(table[name]["calls"], 0, name)
        op = table[OP]
        layers = sum(row["self_s"] for name, row in table.items() if name != OP)
        self.assertAlmostEqual(op["self_s"] + layers, op["total_s"], places=6)


class CommandTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(BENCH_DIR, Path(bare) / "perfbench", ignore=shutil.ignore_patterns(
                "results", ".work-*", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "forest", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60, env=env,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
