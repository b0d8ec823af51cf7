#!/usr/bin/env python3
"""Tests of the benchmark itself: a tiny-scale smoke of every workload
(seconds each), the traced pass, and proof that a tampered report or a
failing child lowers ok_frac.

  python3 perfbench/test_run.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = ["--scale", "1", "--seconds", "0.5", "--seed", "5"]


def bench(*args):
    """Run the benchmark in-process; its final JSON line and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


class Tamper:
    """Replace `run.run_child` so that the `which`-th `rdf align` child
    has its report altered or exits non-zero."""

    def __init__(self, which, mode):
        self.which, self.mode, self.seen = which, mode, 0
        self.real = run.run_child

    def __call__(self, argv, cwd):
        child = self.real(argv, cwd)
        if len(argv) > 1 and argv[1] == "align":
            self.seen += 1
            if self.seen == self.which:
                if self.mode == "report":
                    child.out = child.out.replace("aligned edge ratio", "aligned edge ratiO")
                else:
                    child.code = 1
        return child

    def __enter__(self):
        run.run_child = self
        return self

    def __exit__(self, *exc):
        run.run_child = self.real


class BenchmarkTest(unittest.TestCase):
    def spec(self):
        return json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_names_the_metrics_run_py_prints(self):
        spec = self.spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_every_workload_smokes_at_tiny_scale(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, last, text = bench("--workload", workload, *TINY)
                self.assertEqual(code, 0)
                self.assertTrue(last["correct"], text)
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(set(last["metrics"]), set(run.END_TO_END))
                self.assertEqual(last["metrics"]["ok_frac"]["value"], 1.0)
                for name, m in last["metrics"].items():
                    self.assertEqual(m["unit"], run.END_TO_END[name])
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("identity ", text)

    def test_traced_pass_reports_every_layer(self):
        code, last, text = bench("--workload", "serve-mix", "--trace", "1", *TINY)
        self.assertEqual(code, 0)
        self.assertTrue(last["correct"], text)
        self.assertEqual(set(last["metrics"]), set(run.PER_LAYER))

    def test_tampered_report_lowers_ok_frac(self):
        with Tamper(2, "report"):
            code, last, _ = bench("--workload", "align-oneshot", *TINY)
        self.assertEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)
        self.assertLess(last["metrics"]["ok_frac"]["value"], 1.0)

    def test_nonzero_exit_lowers_ok_frac(self):
        with Tamper(1, "exit"):
            code, last, _ = bench("--workload", "align-oneshot", *TINY)
        self.assertEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertLess(last["metrics"]["ok_frac"]["value"], 1.0)

    def test_served_report_must_equal_the_one_shot_report(self):
        # The reference one-shot align runs after the loops; altering it
        # fails every served align.
        with Tamper(1, "report"):
            code, last, _ = bench("--workload", "serve-mix", *TINY)
        self.assertEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertLess(last["metrics"]["ok_frac"]["value"], 1.0)

    def test_without_the_repository_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "align-oneshot",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
