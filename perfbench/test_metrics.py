#!/usr/bin/env python3
"""The benchmark's own test: BENCHMARK.json is well formed, every workload
emits every declared metric name (end-to-end with --trace 0, per-layer
with --trace 1) with its declared unit and a finite value, its outputs
pass the correctness gate, and the benchmark refuses to run outside a
checkout.

    python3 perfbench/test_metrics.py      # from the root of a checkout; a few minutes
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class Schema(unittest.TestCase):
    def test_keys_and_names(self):
        b = load()
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(b["command"]) <= 32 and all(len(c) <= 200 for c in b["command"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(os.path.getsize("BENCHMARK.json"), 64 * 1024)


class Workloads(unittest.TestCase):
    def check(self, workload, trace):
        b = load()
        r = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], r.stdout[-2000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], declared[name])
            self.assertIsInstance(m["value"], (int, float))
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)

    def test_workloads(self):
        for w in load()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_refuses_outside_a_checkout(self):
        bare = os.path.join(".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for p in load()["paths"]:
            shutil.copytree(p, os.path.join(bare, p))
        r = run(load()["workloads"][0]["name"], 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
