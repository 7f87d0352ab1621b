"""Order statistics shared by the benchmark metrics and the autoscaler."""

from __future__ import annotations

from typing import List


def percentile(ordered: List[float], fraction: float) -> float:
    """Linear interpolation between closest ranks (numpy's default):
    rank = fraction * (n - 1), and the value is interpolated between
    floor(rank) and ceil(rank)."""
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = lower + 1
    if upper >= len(ordered):
        return ordered[-1]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight
