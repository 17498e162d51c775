"""Self-tests of the statistics the benchmark reports, and of
BENCHMARK.json against the metric tables in metrics.py.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


class NearestRankTest(unittest.TestCase):
    def test_rank_is_ceil_q_times_n(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.nearest_rank(v, 0.5), 50)
        self.assertEqual(metrics.nearest_rank(v, 0.99), 99)
        self.assertEqual(metrics.nearest_rank(v, 0.991), 100)
        self.assertEqual(metrics.nearest_rank(v, 1.0), 100)

    def test_small_samples(self):
        self.assertEqual(metrics.nearest_rank([7], 0.5), 7)
        self.assertEqual(metrics.nearest_rank([7], 0.99), 7)
        self.assertEqual(metrics.nearest_rank([1, 2], 0.5), 1)
        self.assertEqual(metrics.nearest_rank([1, 2], 0.51), 2)
        self.assertEqual(metrics.nearest_rank([1, 2, 3], 0.01), 1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.nearest_rank([], 0.5)


class TailRuleTest(unittest.TestCase):
    """The reported tail is the highest percentile with >= 10 samples
    beyond it."""

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(metrics.tail_quantile(1000), 0.99)
        self.assertEqual(metrics.tail_quantile(999), 0.95)

    def test_falls_back_step_by_step(self):
        self.assertEqual(metrics.tail_quantile(200), 0.95)
        self.assertEqual(metrics.tail_quantile(199), 0.9)
        self.assertEqual(metrics.tail_quantile(100), 0.9)
        self.assertEqual(metrics.tail_quantile(40), 0.75)
        self.assertEqual(metrics.tail_quantile(39), 0.5)

    def test_capped_at_the_metric_name(self):
        self.assertEqual(metrics.tail_quantile(10 ** 6), 0.99)
        self.assertEqual(metrics.tail_quantile(10 ** 6, highest=0.999), 0.999)

    def test_tail_value(self):
        v, q = metrics.tail(list(range(1000, 0, -1)))
        self.assertEqual((v, q), (990, 0.99))

    def test_windowed_tail_is_median_of_windows(self):
        # Three 1 s windows of 1000 samples; one holds a stall.
        values, at = [], []
        for w, base in enumerate((100, 100_000, 120)):
            for i in range(1000):
                values.append(base + i)
                at.append(w * 1_000_000_000 + i)
        tail, q, windows = metrics.windowed_tail(values, at, 1.0)
        self.assertEqual((q, windows), (0.99, 3))
        self.assertEqual(tail, 120 + 989)
        low, _, _ = metrics.windowed_tail(values, at, 1.0, over=0.1)
        self.assertEqual(low, 100 + 989)


class HostNoiseTest(unittest.TestCase):
    """Windows in which the hypervisor stole CPU time are left out."""

    def setUp(self):
        hz = os.sysconf("SC_CLK_TCK")
        # 4 CPUs; second 1 loses half the machine, the others nothing.
        self.raw = {"meta": {"nproc": "4"}, "steal": [
            [0, 0], [1_000_000_000, 0], [2_000_000_000, 2 * hz],
            [3_000_000_000, 2 * hz], [4_000_000_000, 2 * hz]]}
        self.values, self.at = [], []
        for w, base in enumerate((100, 100_000, 120, 110)):
            for i in range(1000):
                self.values.append(base + i)
                self.at.append(w * 1_000_000_000 + i)

    def test_stolen_share(self):
        noise = metrics.HostNoise(self.raw)
        self.assertAlmostEqual(noise.stolen(1_000_000_000, 2_000_000_000), 0.5)
        self.assertEqual(noise.stolen(2_000_000_000, 3_000_000_000), 0.0)

    def test_stolen_window_is_left_out(self):
        noise = metrics.HostNoise(self.raw)
        worst, _, windows = metrics.windowed_tail(
            self.values, self.at, 1.0, over=1.0, noise=noise)
        self.assertEqual((worst, windows), (120 + 989, 3))
        worst, _, windows = metrics.windowed_tail(
            self.values, self.at, 1.0, over=1.0)
        self.assertEqual((worst, windows), (100_000 + 989, 4))

    def test_least_stolen_quarter_when_all_are_stolen(self):
        hz = os.sysconf("SC_CLK_TCK")
        # Every second loses some CPU; second 2 loses the least.
        steal = [[0, 0]]
        for sec, share in enumerate((0.5, 0.3, 0.1, 0.4), start=1):
            steal.append([sec * 1_000_000_000,
                          steal[-1][1] + int(share * 4 * hz)])
        noise = metrics.HostNoise({"meta": {"nproc": "4"}, "steal": steal})
        self.assertEqual(noise.quiet([0, 1, 2, 3], 1_000_000_000), {2})

    def test_no_samples_means_nothing_is_left_out(self):
        noise = metrics.HostNoise({"meta": {}})
        self.assertEqual(noise.stolen(0, 10 ** 9), 0.0)


class SustainedRateTest(unittest.TestCase):
    def rung(self, rate, lat_us, n=4000):
        return {"name": "ladder", "rate": rate, "unsent": 0, "records": 0,
                "queries": n, "io_reads": 0, "seconds": 1.0, "start_ns": 0,
                "query_ns": [lat_us * 1000] * n,
                "query_at_ns": [i * 250_000 for i in range(n)],
                "update_ns": [], "update_at_ns": [], "lag_ns": []}

    def test_interpolates_between_pass_and_fail(self):
        raw = {"workload": "hot-wire", "segments": [
            self.rung(10, 100), self.rung(20, 10_000)]}
        # log-midpoint of 100 us and 10 ms is 1 ms.
        self.assertAlmostEqual(
            metrics.sustained_rate(raw, limit_us=1000.0), 15.0)

    def test_all_rungs_pass(self):
        raw = {"workload": "hot-wire", "segments": [
            self.rung(10, 100), self.rung(20, 200)]}
        self.assertEqual(metrics.sustained_rate(raw), 20)

    def test_unsent_requests_fail_the_rung(self):
        bad = self.rung(20, 100)
        bad["unsent"] = 5
        raw = {"workload": "hot-wire", "segments": [self.rung(10, 100), bad]}
        # p99 still under the limit: the crossing is put midway.
        self.assertEqual(metrics.sustained_rate(raw), 15)
        bad["query_ns"] = [10_000_000] * len(bad["query_ns"])
        self.assertAlmostEqual(
            metrics.sustained_rate(raw, limit_us=1000.0), 15.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_metric_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        self.assertLessEqual(set(names), set(metrics.WORKLOADS))
        self.assertGreaterEqual(len(names), 2)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         metrics.PER_LAYER)
        self.assertIn("setup_s", metrics.END_TO_END)


if __name__ == "__main__":
    unittest.main()
