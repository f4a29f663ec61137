"""Self-tests of the benchmark.

Run from the repository root with ``python3 bench/test_bench.py`` (or
``python3 -m pytest bench/test_bench.py``). They run every workload at a tiny
sample count, check that each metric named in BENCHMARK.json is emitted with
its unit, and check that the correctness gate rejects perturbed results.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Small enough for seconds per run, large enough that every workload (and its
# m/4 scaling prefix) still identifies the plant.
TINY_M = {"demo": 100, "vdp_wide_m5000": 400, "chain3_r3_m2000": 200}
RUN_TIMEOUT_S = 300


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


class EveryMetricIsEmitted(unittest.TestCase):
    def test_every_workload_at_tiny_m(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.SPECS))
        for name in workloads.SPECS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", trace, "--m", str(TINY_M[name]))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for k, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), k)
                    if trace == "0":
                        printed = {line.split()[0] for line in proc.stdout.splitlines()}
                        self.assertLessEqual(set(run.PRINTED_ONLY) | {"failed_fraction"}, printed)

    def test_without_sources_it_fails_without_a_result(self):
        # The benchmark directory and BENCHMARK.json alone: nothing to build.
        bare = BENCH_DIR / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "demo", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class GateRejectsWrongResults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.setup("demo", 3)
        cls.stages = workloads.library_pass(cls.wl)

    def test_identified_model_passes(self):
        self.assertEqual(workloads.gate(self.wl, self.stages), [])

    def test_perturbed_coefficient_fails(self):
        model, plant = self.stages.model, self.wl.plant
        x1 = self.wl.s.Expression.variable(0, 2)
        f = list(model.f)
        f[1] = f[1] + 1e-5 * (x1 * x1 * model.f[0])  # moves the x1^2*x2 coefficient
        failures = workloads.model_failures(plant, f, model.g, model.c, 2, 2)
        self.assertTrue(any("coefficient error" in msg for msg in failures), failures)

    def test_spurious_term_fails(self):
        model, plant = self.stages.model, self.wl.plant
        x1 = self.wl.s.Expression.variable(0, 2)
        g = list(model.g)
        g[0] = g[0] + 1e-3 * x1
        failures = workloads.model_failures(plant, model.f, g, model.c, 2, 2)
        self.assertTrue(any("support" in msg for msg in failures), failures)

    def test_wrong_relative_degree_fails(self):
        model, plant = self.stages.model, self.wl.plant
        self.assertTrue(workloads.model_failures(plant, model.f, model.g, model.c, 1, 2))

    def test_closed_loop_bounds(self):
        self.assertEqual(workloads.loop_failures(0.0, 0.0), [])
        self.assertTrue(workloads.loop_failures(2e-2, 0.0))
        self.assertTrue(workloads.loop_failures(0.0, 0.06))

    def test_perturbed_pipeline_artifact_fails(self):
        work = BENCH_DIR / "out" / "gate-test"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            out = work / "pipeline"
            workloads.run_cli_pipeline(workloads.write_config(self.wl, work), out)
            self.assertEqual(workloads.artifact_failures(self.wl, out), [])
            model_path = out / "model.json"
            model = json.loads(model_path.read_text(encoding="utf-8"))
            model["f"][1] += " + 0.00001*x1"
            model_path.write_text(json.dumps(model), encoding="utf-8")
            failures = workloads.artifact_failures(self.wl, out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertTrue(any("coefficient error" in msg for msg in failures), failures)


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(40)]), (29.0, 75.0))
        self.assertEqual(run.tail([float(i) for i in range(20)]), (9.0, 50.0))
        # too few samples for a tail: the median order statistic
        self.assertEqual(run.tail([3.0, 1.0, 2.0, 5.0, 4.0]), (3.0, 60.0))


if __name__ == "__main__":
    unittest.main()
