"""Statistics helpers of the end-to-end benchmark.

Timings are reported as a median with the sample count, plus a tail: the
highest percentile that still has at least ten samples beyond it. Ratios are
ratios of medians taken in the same run. Failures are counted against the
operations attempted. Two sweeps are compared by how much worse one median
is than the other.
"""

import statistics

TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile with `beyond` samples above.

    With n sorted samples the value is the (n - beyond)-th smallest, so exactly
    `beyond` samples lie past it; its percentile is 100 * (n - beyond) / n.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(f"a tail with {beyond} samples beyond needs {beyond + 1}, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def ratio_of_medians(numerator, denominator):
    base = median(denominator)
    if base <= 0:
        raise ValueError("ratio against a non-positive median")
    return median(numerator) / base


def worsening(value, baseline, better):
    """How much worse `value` is than `baseline`, as a share of the baseline.

    Negative when `value` is better. `better` is "lower" or "higher", as in
    BENCHMARK.json.
    """
    if baseline <= 0:
        raise ValueError("worsening against a non-positive baseline")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    change = (value - baseline) / baseline
    return change if better == "lower" else -change


def failure_share(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
