"""Small statistics helpers shared by the workloads and the report."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles the report considers, in increasing order.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100] (got {pct})")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(math.ceil(round(pct / 100.0 * n, 9)), 1)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def highest_reportable(n: int, min_beyond: int = 10) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ``min_beyond``
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pct in PERCENTILES:
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
    return best


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def floor(rows: Sequence[Sequence[float]]) -> list[float]:
    """Position-wise minimum of equally long rows: each window's fastest
    host time over the repetitions that all ran the same windows."""
    if not rows:
        raise ValueError("floor of no rows")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("rows differ in length")
    return [min(column) for column in zip(*rows)]


def scaling_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    1.0 means run time grows linearly with the device count; 2.0 means
    doubling the fleet quadruples the cost.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("sizes must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
