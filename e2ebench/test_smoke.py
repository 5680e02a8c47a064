#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at toy sizes (seconds, not minutes).

Run from the repository root:

    python3 e2ebench/test_smoke.py

Runs every workload untraced and traced through run.py, asserts that every
metric of BENCHMARK.json is printed with its unit and that the outputs check,
then exercises the held-out-seed path, the failure accounting, and the exit
code in a directory without the program's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the module under test)

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def bench(*args):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--scale", "toy",
           "--seconds", "0.3", *args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)


class SmokeTest(unittest.TestCase):
    def assert_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertIn([m["name"], m["unit"]], [line.split()[0:3:2] for line in lines],
                          f"{m['name']} not printed with its unit")
        self.assertTrue(any(line.startswith("failed_frac ") for line in lines))
        return result

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = self.assert_result(bench("--workload", workload), SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                self.assert_result(bench("--workload", workload, "--trace", "1"),
                                   SPEC["per_layer"])

    def test_held_out_seed_skips_pins_but_checks(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                self.assert_result(bench("--workload", "static_12k", "--seed", "7",
                                         "--trace", trace),
                                   SPEC["per_layer" if trace == "1" else "end_to_end"])

    def test_checker_counts_every_kind_of_failure(self):
        with open(os.path.join(run.HERE, "pins.json")) as f:
            pin = json.load(f)["toy"]["static_12k"]
        good = {"op": "warm", "outputs": {"invariants_ok": True, **copy.deepcopy(pin)}}
        off_count = copy.deepcopy(good)
        off_count["outputs"]["counts"]["edges"] += 1
        off_scalar = copy.deepcopy(good)
        off_scalar["outputs"]["scalars"]["avg_degree"] *= 1 + 1e-6
        broken = copy.deepcopy(good)
        broken["outputs"]["invariants_ok"] = False
        threw = {"op": "warm", "error": "boom"}

        chk = run.checker(pin)
        self.assertTrue(chk.check(good))
        for op in (off_count, off_scalar, broken, threw):
            self.assertFalse(chk.check(op))
        self.assertEqual((chk.attempted, len(chk.failures)), (5, 4))

        held_out = run.checker(None)  # first op becomes the reference
        self.assertTrue(held_out.check(good))
        self.assertTrue(held_out.check(good))
        self.assertFalse(held_out.check(off_count))

    def test_fails_without_program_sources(self):
        root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        bare = os.path.join(root, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run([sys.executable, "e2ebench/run.py", "--workload", "static_12k"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=bare, env=env, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
