#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size, traced and not.

    python3 simbench/test_simbench.py

Each run must pass its correctness checks and print exactly the metric names
and units BENCHMARK.json lists; the traced runs include the check that 1 and
4 shards simulate identically. A tampered twin must show up as a failed
operation, and a seed must fix the inputs.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, seed=7):
    cmd = [sys.executable, str(ROOT / "simbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--size", "tiny",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


class TinyWorkloads(unittest.TestCase):
    def check_metrics(self, result, spec):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_reports_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result, stderr = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], stderr)
                    self.assertEqual(result["failed"], 0, stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, spec)

    def test_tampered_twin_is_a_failed_operation(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                result, stderr = run("uniform64", trace, "--tamper-twin")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn("check failed", stderr)

    def test_seed_fixes_the_inputs(self):
        a, _ = run("saturated16", 1, seed=3)
        b, _ = run("saturated16", 1, seed=3)
        c, _ = run("saturated16", 1, seed=4)
        twins = ["router.flit_hops", "sim.kernel.component_steps_per_cycle",
                 "core.nic.inject_calls", "core.network.drain_cycles"]
        for name in twins:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
        self.assertNotEqual([a["metrics"][n]["value"] for n in twins],
                            [c["metrics"][n]["value"] for n in twins])


if __name__ == "__main__":
    unittest.main()
