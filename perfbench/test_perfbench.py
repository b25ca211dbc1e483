#!/usr/bin/env python3
"""The benchmark's own test: every workload (churn too, which BENCHMARK.json
leaves out) at a tiny size under two seeds, traced and untraced, must pass
the correctness gate and print exactly the metrics BENCHMARK.json names; a
corrupted fingerprint must fail the run.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""

import json
import pathlib
import subprocess
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run as perfbench  # noqa: E402

SEEDS = ("1", "29")  # the default seed and one other
TIMEOUT_S = 170


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(perfbench.build())
        spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.units = {
            "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def bench(self, *args):
        res = subprocess.run([self.binary, *args], stdout=subprocess.PIPE, text=True,
                             timeout=TIMEOUT_S)
        self.assertEqual(res.returncode, 0, res.stdout)
        return res.stdout.strip().splitlines()

    def result(self, *args):
        return json.loads(self.bench(*args)[-1])

    def test_workloads_pass_the_gate_and_print_every_metric(self):
        self.assertLessEqual(set(self.workloads), set(perfbench.WORKLOADS))
        for w in perfbench.WORKLOADS:
            for seed in SEEDS:
                for trace, units in self.units.items():
                    with self.subTest(workload=w, seed=seed, trace=trace):
                        r = self.result("--workload", w, "--seed", seed, "--seconds", "0.2",
                                        "--trace", trace, "--size", "tiny")
                        self.assertTrue(r["correct"])
                        self.assertGreater(r["attempted"], 0)
                        self.assertEqual(r["failed"], 0)
                        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, units)

    def test_corrupted_fingerprint_fails_the_run(self):
        args = ["--workload", "churn", "--seed", "29", "--size", "tiny"]
        fp = self.bench(*args, "--print-fingerprint")[-1]
        timed = args + ["--seconds", "0.2", "--trace", "0", "--expect-seed", "29"]
        good = self.result(*timed, "--expect", fp)
        self.assertTrue(good["correct"])
        self.assertEqual(good["failed"], 0)
        bad = self.result(*timed, "--expect", fp.replace("tick=", "tick=1", 1))
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], bad["attempted"])

    def test_committed_fingerprints_cover_every_workload(self):
        table = json.loads(perfbench.FINGERPRINTS.read_text())
        self.assertEqual(sorted(table), sorted(perfbench.WORKLOADS))
        for w, seeds in table.items():
            self.assertEqual(sorted(map(int, seeds)), list(range(perfbench.FINGERPRINT_SEEDS)), w)


if __name__ == "__main__":
    unittest.main()
