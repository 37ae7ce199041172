"""Percentiles under the benchmark's sample rule.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, so a tail figure always rests on a few observations rather than
on the single worst one.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, q: float) -> tuple[float | None, int]:
    """Nearest-rank *q*-quantile (0 < q < 1) and the sample count.

    The value is None when fewer than MIN_BEYOND samples lie above the
    chosen rank.
    """
    n = len(samples)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None, n
    return sorted(samples)[rank - 1], n
