"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual(q2, stats.median(values))
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([2.0] * 5), 0.0)

    def test_quartiles_need_two_samples(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class Tail(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(100))
        value, percentile = stats.tail(values)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_smallest_sample_count(self):
        values = [float(v) for v in range(11)]
        value, percentile = stats.tail(values)
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_order_does_not_matter(self):
        values = [7, 3, 9, 1, 12, 5, 0, 8, 11, 2, 6, 4, 10]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))
        self.assertEqual(stats.tail(values)[0], 2)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))


class Ratios(unittest.TestCase):
    def test_ratio_of_medians(self):
        self.assertAlmostEqual(stats.ratio_of_medians([2, 4, 100], [1, 2, 3]), 2.0)

    def test_ratio_against_zero_base(self):
        with self.assertRaises(ValueError):
            stats.ratio_of_medians([1.0], [0.0])


class Worsening(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(stats.worsening(1.2, 1.0, "lower"), 0.2)
        self.assertAlmostEqual(stats.worsening(0.8, 1.0, "lower"), -0.2)
        self.assertAlmostEqual(stats.worsening(0.8, 1.0, "higher"), 0.2)

    def test_invalid(self):
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 0.0, "lower")
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")


class SelfTimes(unittest.TestCase):
    @staticmethod
    def span(name, dur, parent=-1):
        return {"name": name, "dur": dur, "parent": parent, "step": 0}

    def test_children_are_subtracted(self):
        spans = [self.span("e2e.refine_load", 1.0), self.span("support.json_parse", 0.6, 0),
                 self.span("cg.from_json", 0.3, 0)]
        selfs = run.self_times(spans, vanilla_s=0.1)
        self.assertAlmostEqual(selfs["e2e"], 0.1)
        self.assertAlmostEqual(selfs["support"], 0.6)
        self.assertAlmostEqual(selfs["cg"], 0.3)

    def test_execution_charges_the_vanilla_share_to_binsim(self):
        spans = [self.span("scorepsim.run_full", 0.35), self.span("binsim.run_vanilla", 0.09),
                 self.span("mpisim.run_2rank", 0.25)]
        selfs = run.self_times(spans, vanilla_s=0.1)
        self.assertAlmostEqual(selfs["scorepsim"], 0.25)
        self.assertAlmostEqual(selfs["mpisim"], 0.15)
        self.assertAlmostEqual(selfs["binsim"], 0.29)


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(0, 10), 0.0)
        self.assertEqual(stats.failure_share(5, 20), 0.25)
        self.assertEqual(stats.failure_share(3, 3), 1.0)

    def test_invalid_counts(self):
        for failed, attempted in ((0, 0), (-1, 5), (6, 5)):
            with self.assertRaises(ValueError):
                stats.failure_share(failed, attempted)


if __name__ == "__main__":
    unittest.main()
