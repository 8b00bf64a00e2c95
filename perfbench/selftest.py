#!/usr/bin/env python3
"""Fast self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload emits every metric named in
``BENCHMARK.json`` with its unit (end-to-end metrics untraced, per-layer
metrics traced), that every output check passes, and that the tracer's
wrappers are gone before any untraced job starts.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import TINY  # noqa: E402
from repro.core import values  # noqa: E402
from repro.planner.planner import Planner  # noqa: E402
from repro.sim.event_loop import EventLoop  # noqa: E402
from repro.tables.table import Table  # noqa: E402

def declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class MetricsEmitted(unittest.TestCase):
    def check(self, trace: int, kind: str) -> None:
        want = declared(kind)
        for workload in TINY.values():
            with self.subTest(workload=workload.name):
                mismatches, attempted, metrics, _ = run.measure(workload, 1, 1.0, trace)
                self.assertEqual(mismatches, [])
                self.assertGreaterEqual(attempted, 1)
                self.assertEqual({n: u for n, (_, u) in metrics.items()}, want)

    def test_end_to_end_metrics_untraced(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_traced(self):
        self.check(1, "per_layer")


class WrappersRemoved(unittest.TestCase):
    def test_untraced_job_after_traced_job_records_nothing(self):
        originals = [vars(Table)["insert"], vars(Planner)["compile"],
                     vars(EventLoop)["schedule_at"], vars(values)["coerce"]]
        workload = TINY["chord_lossy"]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_job(workload, 7)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.leftovers(), [])
        self.assertEqual(
            [vars(Table)["insert"], vars(Planner)["compile"],
             vars(EventLoop)["schedule_at"], vars(values)["coerce"]],
            originals,
        )
        calls, counts = dict(tracer.calls), dict(tracer.counts)
        self.assertGreater(calls["tables.insert"], 0)
        untraced = run.run_job(workload, 7)
        self.assertEqual(dict(tracer.calls), calls)
        self.assertEqual(dict(tracer.counts), counts)
        self.assertEqual(untraced.result, traced.result)


if __name__ == "__main__":
    unittest.main()
