"""Tiny-size runs of every workload through the benchmark's own command.

Builds the driver on first use (as run.py does), so the first test can take
minutes.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(os.path.dirname(HERE), "run.py")


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("run.py failed (%d): %s\n%s" %
                             (p.returncode, p.stdout[-2000:], p.stderr[-2000:]))
    settings = json.loads(lines[0].split(": ", 1)[1])
    return settings, json.loads(lines[-1])


class TinyRunTest(unittest.TestCase):
    def check(self, result, table):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(table))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], table[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for wl in metrics.WORKLOADS:
            with self.subTest(workload=wl, trace=0):
                _, result = run(wl, 1, 0)
                self.check(result, metrics.END_TO_END)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=wl, trace=1):
                _, result = run(wl, 1, 1)
                self.check(result, metrics.PER_LAYER)

    def test_seeds_change_inputs_not_metrics(self):
        for wl in metrics.WORKLOADS:
            with self.subTest(workload=wl):
                a_settings, a = run(wl, 1, 0)
                b_settings, b = run(wl, 2, 0)
                self.assertNotEqual(a_settings["inputs"], b_settings["inputs"])
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))
                again, _ = run(wl, 1, 0)
                self.assertEqual(a_settings["inputs"], again["inputs"])


if __name__ == "__main__":
    unittest.main()
