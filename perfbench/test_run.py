"""Smoke test of the benchmark on tiny inputs.

    python3 -m unittest perfbench/test_run.py      # from the checkout root

Every workload must emit every metric BENCHMARK.json names, with its unit,
in both modes; a corrupted output must be reported as a failure.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = bench(w["name"], trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in r["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_corrupted_assignment_is_a_failure(self):
        for workload in ("detect-rmat", "serve-mixed"):
            with self.subTest(workload=workload):
                r = bench(workload, 0, "--corrupt")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)


if __name__ == "__main__":
    unittest.main()
