#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, both modes.

Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py

It checks that each workload answers correctly and prints exactly the
metrics BENCHMARK.json names, with their units, and why the workload was
chosen; that the simulated metrics and the simulated-statistics digest
repeat exactly for a seed while host metrics are marked noisy; that the
layer map in run.py covers every per-layer metric and maps it to the
end-to-end metrics it should move; that the output states the model is
unvalidated and that modelled caches start empty on every run; and that
the benchmark fails cleanly outside a full checkout.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--scale", "0.01"]

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run_py = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_py)


def bench(*args):
    """Runs run.py; returns (exit code, stdout lines)."""
    ran = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=900, check=False)
    return ran.returncode, ran.stdout.splitlines()


def header(lines, prefix):
    return next(l for l in lines if l.startswith(prefix))


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run_py.load_spec()

    def run_workload(self, workload, trace, seed=7, seconds="0"):
        code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds",
                            seconds, "--trace", str(trace), *TINY)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return lines, result

    def test_every_workload_prints_the_declared_metrics(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            measured = set()
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    lines, result = self.run_workload(w["name"], trace)
                    self.assertEqual(header(lines, "# why:"), f"# why: {w['why']}")
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, declared)
                    nonzero = {k for k, v in result["metrics"].items() if v["value"] != 0}
                    if trace == 0:
                        self.assertEqual(nonzero, set(declared))
                    measured |= nonzero
            # A per-layer metric reads 0 on a workload that does not call
            # its layer, but some workload must measure it. The x86
            # lowering is branch-free, so no branch mispredicts yet.
            self.assertEqual(set(declared) - measured - {"cpu.mispredicts.x86"}, set())

    def test_layer_map_covers_every_per_layer_metric(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        for m in self.spec["per_layer"]:
            with self.subTest(metric=m["name"]):
                entry = run_py.layer_of(m["name"])
                self.assertIsNotNone(entry)
                _, layer, kind, moves, where = entry
                self.assertTrue(layer)
                self.assertIn(kind, (run_py.EXACT, run_py.HOST))
                self.assertLessEqual(set(moves), e2e)
                self.assertTrue(any(w in where for w in workloads | {"all"}), where)

    def test_sim_metrics_are_exact_and_host_metrics_noisy(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(run_py.kind_of(m["name"], False),
                             run_py.EXACT if m["name"].startswith("sim_") else run_py.HOST)
        for m in self.spec["per_layer"]:
            if m["unit"] in ("s", "ms", "ns"):
                self.assertEqual(run_py.kind_of(m["name"], True), run_py.HOST, m["name"])
        lines, _ = self.run_workload("skip_clustered", 0)
        for m in self.spec["end_to_end"]:
            row = next(l for l in lines if l.startswith(f"#   {m['name']} "))
            self.assertTrue(row.endswith(run_py.kind_of(m["name"], False)), row)

    def test_same_seed_repeats_every_simulated_statistic(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                runs = [self.run_workload(w["name"], 0, seed=11) for _ in range(2)]
                digests = [header(lines, "# sim_digest:") for lines, _ in runs]
                self.assertEqual(digests[0], digests[1])
                sims = [{k: v["value"] for k, v in r["metrics"].items() if k.startswith("sim_")}
                        for _, r in runs]
                self.assertEqual(sims[0], sims[1])
        other, _ = self.run_workload("scan_sweep", 0, seed=12)
        self.assertNotEqual(header(other, "# sim_digest:"), digests[0])

    def test_output_states_model_status_and_reset_protocol(self):
        # Several passes: each must reproduce the first pass's digest,
        # which ran on freshly materialized sessions, or it counts as a
        # failed run; so caches start empty on every run.
        lines, _ = self.run_workload("scan_sweep", 0, seconds="0.3")
        passes = header(lines, "# hipe-perfbench").split("passes=")[1]
        self.assertGreaterEqual(int(passes.split("+")[0]), 2)
        model = header(lines, "# model:")
        self.assertIn("unvalidated", model)
        self.assertIn("caches start empty on every run", model)

    def test_fails_without_the_repository_sources(self):
        # The bare copy lives under the target directory, so the test
        # writes nothing outside the checkout.
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(target, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            ran = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scan_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180, check=False)
            self.assertNotEqual(ran.returncode, 0)
            self.assertEqual(ran.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
