"""Unit tests of perf/stats.py.  Run: python3 -m unittest perf/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        samples = list(range(1, 1001))
        self.assertEqual(stats.percentile(samples, 99), 990)
        with self.assertRaises(ValueError):
            stats.percentile(samples[:999], 99)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(stats.percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 400
        self.assertEqual(stats.percentile(samples, 50), 3.0)
        self.assertEqual(stats.percentile(samples, 99), 5.0)

    def test_rejects_non_integer_percentiles(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(5000)), 99.9)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(5000)), 0)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, med, q3))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.spread([7.0, 7.0, 7.0]), 0.0)
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_three_values(self):
        self.assertEqual(stats.quartiles([1.0, 2.0, 3.0]), (1.0, 2.0, 3.0))


class OutageGapSearch(unittest.TestCase):
    def test_longest_gap_starting_in_the_window(self):
        deliveries = [9970.0, 9985.0, 9995.0, 10130.0, 10135.0, 10140.0]
        self.assertEqual(stats.outage_gaps(deliveries, [10000.0]), [135.0])

    def test_gap_starting_before_the_window_is_ignored(self):
        deliveries = [9900.0, 10300.0, 10310.0]
        self.assertEqual(stats.outage_gaps(deliveries, [10000.0]), [10.0])

    def test_gap_starting_at_the_window_edges_counts(self):
        deliveries = [9980.0, 9990.0, 12000.0, 12500.0]
        self.assertEqual(stats.outage_gaps(deliveries, [10000.0]), [2010.0])

    def test_gap_starting_after_the_window_is_ignored(self):
        deliveries = [10000.0, 10005.0, 12001.0, 13000.0]
        self.assertEqual(stats.outage_gaps(deliveries, [10000.0]), [1996.0])

    def test_one_result_per_probe(self):
        deliveries = [float(t) for t in range(0, 50000, 5)] + [60000.0]
        deliveries.sort()
        self.assertEqual(stats.outage_gaps(deliveries, [1000.0, 49990.0]), [5.0, 10005.0])

    def test_no_delivery_in_the_window(self):
        self.assertEqual(stats.outage_gaps([1.0, 2.0], [10000.0]), [0.0])


class FailFrac(unittest.TestCase):
    def test_counts_undelivered_and_shed_against_offered(self):
        self.assertEqual(stats.fail_frac(broadcast=990, undelivered=5, shed=10), 15 / 1000)

    def test_zero_when_everything_delivered(self):
        self.assertEqual(stats.fail_frac(broadcast=100, undelivered=0, shed=0), 0.0)

    def test_rejects_an_empty_run(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(broadcast=0, undelivered=0, shed=0)


if __name__ == "__main__":
    unittest.main()
