"""Summary arithmetic shared by the benchmark: medians, tail percentiles,
failure fractions and golden-value comparison.  Standard library only, so
the parent process can use it without importing numpy."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(values, pct: float):
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank pct percentile of n samples."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n: int):
    """Highest candidate percentile with TAIL_MIN_BEYOND samples beyond it
    among n samples, or None when n is too small for any."""
    for pct in TAIL_CANDIDATES:
        if beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values, pct: float):
    """The pct tail of values; pct 100 is the slowest sample.  Raises when
    fewer than TAIL_MIN_BEYOND samples lie beyond a pct below 100."""
    if pct < 100.0 and beyond(len(values), pct) < TAIL_MIN_BEYOND:
        raise ValueError(f"{len(values)} samples leave fewer than "
                         f"{TAIL_MIN_BEYOND} beyond p{pct:g}")
    return max(values) if pct >= 100.0 else nearest_rank(values, pct)


def fail_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def matches_golden(value: float, golden: float, rtol: float,
                   atol: float = 0.0) -> bool:
    """|value - golden| <= rtol |golden| + atol; NaN never matches."""
    return abs(value - golden) <= rtol * abs(golden) + atol
