"""Order statistics shared by the runner and the compare command.

Every percentile, median and quartile is ``numpy.percentile``'s default
linear interpolation between ranks, one definition for run-level metrics
and for the compare command alike.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*."""
    return float(np.percentile(values, q))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the rank of percentile *q*."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it among *n* samples (0 when even the minimum has fewer)."""
    for q in range(99, 0, -1):
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return 0


def quartiles(values: Sequence[float]) -> tuple:
    """``(Q1, median, Q3)`` of *values*."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
