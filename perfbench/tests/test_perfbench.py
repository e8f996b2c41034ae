#!/usr/bin/env python3
"""The benchmark's own tests, on tiny workloads (--tiny shrinks every
circuit and axis).  Run from the checkout root:

    python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import fold  # noqa: E402
import run  # noqa: E402

SCRATCH = os.path.join(run.BUILD_ROOT, "tests")


def tiny(workload, seed, trace=0, *extra):
    return run.run_binary(workload, seed, 0.1, trace, ("--tiny",) + extra)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expect_metrics(self, metrics, declared):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(metrics), set(units))
        for name, (value, unit) in metrics.items():
            self.assertEqual(unit, units[name], name)
            self.assertIsInstance(value, (int, float), name)

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            code, doc = tiny(workload, 3)
            self.assertEqual(code, 0, doc and doc["errors"])
            self.assertTrue(doc["correct"])
            self.expect_metrics(run.end_to_end(doc), self.spec["end_to_end"])
        code, doc = tiny("reseed_sweep", 3, 1)
        self.assertEqual(code, 0, doc and doc["errors"])
        self.expect_metrics(fold.layer_metrics(doc), self.spec["per_layer"])
        self.assertIn("reseed", fold.table([doc]))

    def test_a_corrupted_run_fails_the_check(self):
        code, doc = tiny("atpg_many", 5, 0, "--corrupt-run", "1")
        self.assertEqual(code, 1)
        self.assertFalse(doc["correct"])
        self.assertTrue(any("covers" in e for e in doc["errors"]), doc["errors"])

    def test_one_seed_gives_one_report_from_any_directory(self):
        reports = []
        digests = set()
        for sub in ("a", "b"):
            work = tempfile.mkdtemp(dir=SCRATCH)
            report = os.path.join(SCRATCH, f"report-{sub}.json")
            code, doc = tiny("reseed_sweep", 7, 0, "--work-dir", work,
                             "--report", report)
            shutil.rmtree(work)
            self.assertEqual(code, 0, doc and doc["errors"])
            digests.add(doc["circuit_digest"])
            with open(report, "rb") as f:
                reports.append(f.read())
        self.assertEqual(len(digests), 1)
        self.assertEqual(reports[0], reports[1])

    def test_different_seeds_give_different_circuits(self):
        digests = {tiny("atpg_many", seed)[1]["circuit_digest"] for seed in (1, 2)}
        self.assertEqual(len(digests), 2)

    def test_refuses_a_foreign_configuration(self):
        for var in ("FBIST_FAILPOINTS", "FBIST_JOBS", "FBIST_SIMD"):
            proc = subprocess.run(
                [run.BINARY, "--workload", "atpg_many", "--seed", "1",
                 "--seconds", "1", "--trace", "0", "--tiny"],
                cwd=run.ROOT, env=dict(os.environ, **{var: "1"}),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            self.assertEqual(proc.returncode, 2, var)
            self.assertEqual(proc.stdout, "", var)
            self.assertIn(var, proc.stderr)

    def test_fails_without_the_program_sources(self):
        bare = tempfile.mkdtemp(dir=SCRATCH)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "atpg_many",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
