#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout.  The first run builds the benchmark and
the repository linter (as run.py does, under $CARGO_TARGET_DIR or
.bench_build); each workload then runs in its short mode, which takes the
same code paths as a full run on a fraction of the work.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def short_run(workload, trace, seed=3, env=None, cwd=ROOT):
    """One short run through run.py: (exit code, stdout)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return done.returncode, done.stdout


def result_of(stdout):
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


def metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


class ShortModeTest(unittest.TestCase):
    """Every workload, traced and untraced, in short mode."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        run.build()
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, out = short_run(workload, trace)
                cls.runs[workload, trace] = (code, out)

    def test_results_are_correct(self):
        for (workload, trace), (code, out) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                result = result_of(out)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_every_named_metric_with_its_unit(self):
        for (workload, trace), (_, out) in self.runs.items():
            specs = SPEC["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                reported = result_of(out)["metrics"]
                self.assertEqual(list(reported), [s["name"] for s in specs])
                for spec in specs:
                    self.assertEqual(reported[spec["name"]]["unit"],
                                     spec["unit"])
                    # Every value also appears in the printed table with
                    # its source (or n/a where the workload bypasses it).
                    self.assertIn("| %s |" % spec["name"], out)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for name, value in metrics(
                        result_of(self.runs[workload, 0][1])).items():
                    self.assertGreater(value, 0.0, name)

    def test_physics_scan_splits_into_thermal_and_conversion(self):
        m = metrics(result_of(self.runs["physics_pipeline", 1][1]))
        self.assertGreater(m["thermal.advance_s"], 0.0)
        self.assertGreater(m["core.convert_s"], 0.0)
        self.assertAlmostEqual(m["thermal.advance_s"] + m["core.convert_s"],
                               m["sampler.advance_sample_s"], delta=1e-9)

    def test_bypassed_layers_are_marked(self):
        out = self.runs["dtm_chaos", 1][1]
        self.assertIn("| store.seal_s | n/a |", out)
        self.assertIn("| thermal.advance_s | n/a |", out)
        out = self.runs["ingest_fanin", 1][1]
        self.assertIn("| core.convert_s | n/a |", out)

    def test_accuracy_and_energy_repeat_for_a_seed(self):
        for workload, trace, names in (
                ("physics_pipeline", 0,
                 ("sense_err_3sigma_c", "conv_energy_pj")),
                ("dtm_chaos", 1, ("control.energy_j", "control.violation_s"))):
            with self.subTest(workload=workload):
                code, again = short_run(workload, trace)
                self.assertEqual(code, 0)
                first = metrics(result_of(self.runs[workload, trace][1]))
                second = metrics(result_of(again))
                for name in names:
                    self.assertEqual(first[name], second[name], name)


class FanInCorpusTest(unittest.TestCase):
    def corpus_crc(self, seed):
        binary = os.path.join(run.build(), "tsvpt_perfbench")
        return subprocess.run(
            [binary, "--corpus-crc", "600", "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()

    def test_frames_are_a_pure_function_of_the_seed(self):
        self.assertEqual(self.corpus_crc(5), self.corpus_crc(5))
        self.assertNotEqual(self.corpus_crc(5), self.corpus_crc(6))


class LintTest(unittest.TestCase):
    def test_sources_pass_tsvpt_lint(self):
        build_dir = run.build("perfbench_lint")
        sources = sorted(glob.glob(os.path.join(HERE, "*.cpp")) +
                         glob.glob(os.path.join(HERE, "*.hpp")))
        done = subprocess.run(
            [os.path.join(build_dir, "perfbench_lint"), "--root", ROOT,
             *sources], stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


class WithoutSourcesTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        # A checkout holding only BENCHMARK.json and perfbench/ has nothing
        # to build: no result, non-zero exit.
        bare = os.path.join(run.build_root(), "perfbench-test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".build"))
        code, out = short_run("dtm_chaos", 0, env=env, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    unittest.main()
