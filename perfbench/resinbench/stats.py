"""Latency summaries.

A tail percentile is only reported when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it, so p99 needs 1000 samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples
    (rounded first, so 99.9 % of 10000 is rank 9990, not 9991)."""
    return math.ceil(round(p / 100.0 * n, 9))


def highest_supported(n: int) -> Optional[float]:
    """The highest of ``TAIL_CANDIDATES`` with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when even the lowest is unsupported."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least ``p`` %
    of the sample at or below it)."""
    ordered: List[float] = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, _rank(len(ordered), p))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> dict:
    """Median, whether the sample supports p99, and the highest
    supported tail percentile of ``values``."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    tail: Optional[float] = highest_supported(n)
    out = {
        "n": n,
        "p50": statistics.median(values),
        "p99_supported": beyond(n, 99.0) >= MIN_BEYOND,
        "tail_p": tail,
    }
    if tail is not None:
        out["tail"] = percentile(values, tail)
    return out
