"""Tests for the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(stats.percentile(vals, 50), 50)
        self.assertEqual(stats.percentile(vals, 90), 90)
        self.assertEqual(stats.percentile(vals, 99), 99)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_needs_ten_beyond(self):
        # p99 needs 1000 samples: the 990th of 1000 has 10 above it
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        # p90 at exactly 100 samples, p75 below that
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertIsNone(stats.tail_percentile(19))

    def test_samples_beyond(self):
        for n in (20, 40, 100, 1000, 12345):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10)

    def test_failed_requests_miss_every_limit(self):
        s = stats.summarize([1_000_000] * 99 + [-1], tail=99.0)
        self.assertEqual(s["p50_ms"], 1.0)
        self.assertEqual(s["n"], 100)
        s = stats.summarize([1_000_000] * 98 + [-1, -1], tail=99.0)
        self.assertTrue(math.isinf(s["tail_ms"]))

    def test_fixed_tail_reports_beyond(self):
        s = stats.summarize(list(range(1, 51)), tail=75.0)
        self.assertEqual(s["tail_p"], 75.0)
        self.assertEqual(s["tail_beyond"], 12)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_scheduled_send(self):
        due = [0, 100, 200]
        # the generator stalled: the second request went out 80 late
        sent = [0, 180, 200]
        acked = [30, 210, 230]
        lat, late = stats.open_loop(due, sent, acked)
        self.assertEqual(lat, [30, 110, 30])
        self.assertEqual(late, [0, 80, 0])

    def test_early_send_is_not_negative_lateness(self):
        _lat, late = stats.open_loop([100], [99], [150])
        self.assertEqual(late, [0])


class Names(unittest.TestCase):
    def test_valid(self):
        for n in ("p50_ms", "db.lookup_string_us", "gc.major_collections_per_1k_ops",
                  "a", "9lives", "x-y.z_w", "a" * 64):
            self.assertTrue(stats.valid_metric_name(n), n)

    def test_invalid(self):
        for n in ("", "_x", ".x", "a b", "a/b", "lag%", "a" * 65, "é", None):
            self.assertFalse(stats.valid_metric_name(n), n)

    def test_units(self):
        for u in ("ms", "s", "1/s", "count", "%", "MB/s"):
            self.assertTrue(stats.valid_unit(u), u)
        for u in ("", "m s", "x" * 17):
            self.assertFalse(stats.valid_unit(u), u)


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = {
            0: (-1, 0, 100),
            1: (0, 10, 30),
            2: (0, 40, 70),
            3: (2, 45, 50),
        }
        st = stats.self_times(spans)
        self.assertEqual(st[0], 100 - 20 - 30)
        self.assertEqual(st[1], 20)
        self.assertEqual(st[2], 30 - 5)
        self.assertEqual(st[3], 5)

    def test_overlapping_children_counted_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 60), 2: (0, 40, 80)}
        self.assertEqual(stats.self_times(spans)[0], 100 - 70)

    def test_children_clipped_to_parent(self):
        spans = {0: (-1, 10, 20), 1: (0, 5, 15)}
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_covered(self):
        self.assertEqual(stats.covered([]), 0)
        self.assertEqual(stats.covered([(0, 5), (5, 10)]), 10)
        self.assertEqual(stats.covered([(0, 10), (2, 3), (20, 25)]), 15)


if __name__ == "__main__":
    unittest.main()
