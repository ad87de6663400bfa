"""Statistics helpers shared by run.py and compare.py.

Percentiles follow the choosing-metrics method: a timing is reported as a
median plus the highest percentile that has at least ten samples beyond it,
with the sample count. The A/B verdict implements the gain rule (at least
nine tenths of pairs won and a median gap wider than the parent's own
interquartile range) and the regression rule (a median no worse than the
parent's by more than the benchmark's bound, or "unresolved" when the
parent's spread is wider than that bound).
"""

import math
import statistics

# Percentiles tried, lowest first, when looking for the highest resolvable one.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def percentile(values, p):
    """Percentile p (0..100) with linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def tail(values, min_beyond=10):
    """Highest percentile of TAIL_PERCENTILES with >= min_beyond samples
    strictly above its rank.

    Returns (n, p, value); p is None when not even the median has
    min_beyond samples beyond it.
    """
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        # Samples beyond the p-th percentile: n * (1 - p/100), rounded the
        # conservative way so that e.g. 1000 samples resolve p99 (10 beyond).
        beyond = math.floor(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= min_beyond:
            best = p
    if best is None:
        return n, None, None
    return n, best, percentile(values, best)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound=None):
    """Classifies a change against its parent for one (metric, workload).

    parent, change: equally long lists of values from paired runs.
    better: "lower" or "higher". bound: the share of the parent's median
    by which the metric may worsen (None for metrics without a bound).
    Returns (verdict, detail) with verdict one of improved, unchanged,
    worse, unresolved.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs equally many parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    gap = sign * (c_med - p_med)  # > 0: change is better
    iqr = p_q3 - p_q1
    detail = {
        "pairs": pairs,
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": iqr,
    }
    if pairs >= 10 and wins >= 0.9 * pairs and gap > iqr:
        return "improved", detail
    if bound is None:
        losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        if pairs >= 10 and losses >= 0.9 * pairs and -gap > iqr:
            return "worse", detail
        return "unchanged", detail
    every_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if p_med and iqr / abs(p_med) > bound and not every_better:
        return "unresolved", detail
    if -gap > bound * abs(p_med):
        return "worse", detail
    return "unchanged", detail
