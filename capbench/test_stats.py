"""Tests for the percentile helper, the A/B verdict logic and compare.py.

  python3 -m unittest discover -s capbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import stats  # noqa: E402


def around(center, n=10, width=0.02):
    """n values spread evenly over center * (1 +- width)."""
    return [center * (1 - width + 2 * width * i / (n - 1)) for i in range(n)]


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 10)
        self.assertAlmostEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(list(reversed(xs)), 90), 9.1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_reports_count_and_highest_resolved_percentile(self):
        self.assertEqual(stats.tail(list(range(1000)))[:2], (1000, 99.0))
        self.assertEqual(stats.tail(list(range(999)))[:2], (999, 95.0))
        self.assertEqual(stats.tail(list(range(100)))[:2], (100, 90.0))
        self.assertEqual(stats.tail(list(range(10000)))[:2], (10000, 99.9))
        self.assertEqual(stats.tail(list(range(20)))[:2], (20, 50.0))
        self.assertEqual(stats.tail(list(range(19))), (19, None, None))

    def test_tail_value_is_the_percentile(self):
        xs = [float(i) for i in range(1000)]
        n, p, v = stats.tail(xs)
        self.assertAlmostEqual(v, stats.percentile(xs, p))

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertEqual((q1, q2, q3), (2.25, 4.5, 6.75))


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        parent = around(10.0)
        change = around(8.0)
        v, d = stats.verdict(parent, change, "lower", 0.1)
        self.assertEqual(v, "improved")
        self.assertEqual((d["wins"], d["pairs"]), (10, 10))

    def test_direction_higher(self):
        v, _ = stats.verdict(around(100.0), around(130.0), "higher", 0.1)
        self.assertEqual(v, "improved")
        v, _ = stats.verdict(around(100.0), around(70.0), "higher", 0.1)
        self.assertEqual(v, "worse")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        parent = around(10.0)
        change = [8.0] * 8 + [11.0, 11.0]
        v, d = stats.verdict(parent, change, "lower", 0.1)
        self.assertEqual(d["wins"], 8)
        self.assertEqual(v, "unchanged")

    def test_gap_within_parent_iqr_is_not_a_gain(self):
        parent = around(10.0, width=0.05)  # IQR ~0.5
        change = [p - 0.1 for p in parent]  # wins every pair by 0.1
        v, d = stats.verdict(parent, change, "lower", 0.1)
        self.assertEqual(d["wins"], 10)
        self.assertEqual(v, "unchanged")

    def test_fewer_than_ten_pairs_cannot_claim_a_gain(self):
        v, _ = stats.verdict(around(10.0, n=5), around(5.0, n=5), "lower", 0.1)
        self.assertEqual(v, "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        v, _ = stats.verdict(around(10.0), around(11.5), "lower", 0.1)
        self.assertEqual(v, "worse")

    def test_regression_within_bound_is_unchanged(self):
        v, _ = stats.verdict(around(10.0), around(10.5), "lower", 0.1)
        self.assertEqual(v, "unchanged")

    def test_wide_parent_spread_is_unresolved(self):
        parent = around(10.0, width=0.3)  # IQR/median ~0.3 > bound
        change = around(10.2, width=0.3)
        v, _ = stats.verdict(parent, change, "lower", 0.1)
        self.assertEqual(v, "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        parent = around(10.0, width=0.3)
        change = around(5.0, width=0.1)
        v, _ = stats.verdict(parent, change, "lower", 0.1)
        self.assertEqual(v, "improved")

    def test_unbounded_metric(self):
        self.assertEqual(stats.verdict(around(10.0), around(13.0), "lower")[0],
                         "worse")
        self.assertEqual(stats.verdict(around(10.0), around(10.0), "lower")[0],
                         "unchanged")

    def test_ties_count_for_neither_side(self):
        v, d = stats.verdict([5.0] * 10, [5.0] * 10, "lower", 0.1)
        self.assertEqual((d["wins"], v), (0, "unchanged"))

    def test_mismatched_lengths_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.verdict([1.0, 2.0], [1.0], "lower", 0.1)


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25}],
        "per_layer": []}


def result(wall_s, failed=0, attempted=100, correct=None):
    return {"correct": failed == 0 if correct is None else correct,
            "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}


class CompareTest(unittest.TestCase):
    def run_compare(self, parent, change):
        """Writes both sets of runs as compare.py reads them and returns its
        exit code and output."""
        with tempfile.TemporaryDirectory() as root:
            for side, runs in (("parent", parent), ("change", change)):
                d = os.path.join(root, side, "stream")
                os.makedirs(d)
                for i, r in enumerate(runs):
                    with open(os.path.join(d, f"{i:02d}.json"), "w") as f:
                        f.write("log line\n" + json.dumps(r) + "\n")
            spec = os.path.join(root, "spec.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = compare.main([os.path.join(root, "parent"),
                                   os.path.join(root, "change"),
                                   "--spec", spec])
            return rc, out.getvalue()

    def test_equal_failures_are_unchanged(self):
        runs = [result(1, 2, correct=True)] * 3
        v, p, c = compare.failures(runs, runs)
        self.assertEqual((v, p, c), ("unchanged", (6, 300), (6, 300)))

    def test_larger_failure_share_is_worse(self):
        parent = [result(1, 1, correct=True)] * 10
        change = [result(1, 2, correct=True)] * 10
        self.assertEqual(compare.failures(parent, change)[0], "worse")

    def test_failure_share_is_compared_not_count(self):
        # More passes, so more failures, but the same share of operations.
        parent = [result(1, 1, 100, correct=True)] * 10
        change = [result(1, 2, 200, correct=True)] * 10
        self.assertEqual(compare.failures(parent, change)[0], "unchanged")

    def test_incorrect_change_run_is_worse(self):
        change = [result(1)] * 9 + [result(1, correct=False)]
        self.assertEqual(compare.failures([result(1)] * 10, change)[0],
                         "worse")

    def test_faster_but_failing_change_exits_nonzero(self):
        parent = [result(w) for w in around(10.0)]
        change = [result(w, failed=1) for w in around(5.0)]
        rc, out = self.run_compare(parent, change)
        self.assertEqual(rc, 1)
        self.assertNotIn("improved", out)
        self.assertRegex(out, r"failed/attempted\s+0/1000\s+10/1000\s+worse")

    def test_faster_correct_change_is_improved(self):
        parent = [result(w) for w in around(10.0)]
        change = [result(w) for w in around(5.0)]
        rc, out = self.run_compare(parent, change)
        self.assertEqual(rc, 0)
        self.assertRegex(out, r"wall_s .* improved")


if __name__ == "__main__":
    unittest.main()
