"""Order statistics for operation times.

A failed operation enters as ``math.inf``, so it ranks slower than every
successful one. Percentiles use the nearest-rank rule, which never averages
two samples and so never turns a failure into a finite time.
"""

from __future__ import annotations

import math

# Candidate tail percentiles, from the highest down.
TAIL_CANDIDATES = (0.999, 0.99, 0.9, 0.75)
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share p
    of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_share(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None when
    there are too few samples for any tail (fewer than forty)."""
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p) >= MIN_BEYOND - 1e-9:
            return p
    return None


def summarize(times_ms: list[float], failed: list[bool]) -> dict:
    """Median and tail of operation times, failures ranked slowest."""
    if len(times_ms) != len(failed):
        raise ValueError("one failure flag per operation is required")
    ranked = [math.inf if f else t for t, f in zip(times_ms, failed)]
    out = {"n": len(ranked), "failed": sum(failed), "p50": percentile(ranked, 0.5)}
    p = tail_share(len(ranked))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(ranked, p)
    return out
