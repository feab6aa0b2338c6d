"""Unit tests for stats.py: python3 -m unittest discover -s perfbench"""

import random
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.percentile(xs, 50), 5)
        self.assertEqual(stats.percentile(xs, 90), 9)
        self.assertEqual(stats.percentile(xs, 100), 10)
        self.assertEqual(stats.percentile(xs, 0), 1)

    def test_order_of_input_does_not_matter(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.median(xs), 3.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_too_few_samples_reports_no_tail(self):
        self.assertIsNone(stats.tail([1.0] * 99))
        self.assertIsNone(stats.tail([]))

    def test_ladder_choice_and_counts(self):
        p, v, beyond = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((p, v, beyond), (90.0, 90.0, 10))
        p, v, beyond = stats.tail([float(i) for i in range(1, 1001)])
        self.assertEqual((p, v, beyond), (99.0, 990.0, 10))
        p, _, beyond = stats.tail([1.0] * 999)
        self.assertEqual((p, beyond), (90.0, 99))

    def test_tail_never_below_median(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(100, 3000)
            xs = [rng.lognormvariate(0, rng.uniform(0.1, 3)) for _ in range(n)]
            p, v, beyond = stats.tail(xs)
            self.assertGreaterEqual(v, stats.median(xs))
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND)
            self.assertEqual(sum(1 for x in xs if x > v) <= beyond, True)

    def test_a_few_slow_outliers_set_the_tail(self):
        xs = [1.0] * 180 + [100.0] * 20
        p, v, _ = stats.tail(xs)
        self.assertEqual((p, v), (90.0, 1.0))
        xs = [1.0] * 170 + [100.0] * 30
        self.assertEqual(stats.tail(xs)[1], 100.0)


class GeomeanTest(unittest.TestCase):
    def test_value(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


if __name__ == "__main__":
    unittest.main()
