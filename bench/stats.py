"""Latency percentiles: the weighted median and the p99 tail rule.

Latency samples are (value, weight) pairs.  A survey call contributes its
per-vector time with the call's vector count as weight; every other
operation has weight 1.  A failed operation has value inf, so it counts
as beyond any latency limit.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def _value_at_rank(samples, rank: int) -> float:
    """Value of the rank-th smallest weighted sample (1-based)."""
    seen = 0
    for value, weight in sorted(samples):
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("rank beyond the sample count")


def p50(samples) -> float:
    """Weighted median; the mean of the middle two when the weight splits
    exactly in half between them, as statistics.median does."""
    ordered = sorted(samples)
    half = sum(w for _, w in ordered) / 2
    seen = 0
    for i, (value, weight) in enumerate(ordered):
        seen += weight
        if seen > half:
            return value
        if seen == half:
            return (value + ordered[i + 1][0]) / 2
    raise ValueError("no samples")


def tail(samples, q: float = 0.99, min_beyond: int = MIN_BEYOND
         ) -> tuple[float, float]:
    """The q-quantile if at least min_beyond samples lie beyond it.

    Otherwise the highest quantile that still leaves min_beyond samples
    beyond it, and the maximum when there are no more than min_beyond
    samples in all.  Returns (value, quantile actually reported).
    """
    total = sum(w for _, w in samples)
    rank = math.ceil(q * total)
    if total - rank < min_beyond:
        rank = total - min_beyond if total > min_beyond else total
    return _value_at_rank(samples, rank), rank / total
