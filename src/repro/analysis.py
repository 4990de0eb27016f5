"""Statistics helpers shared across the library.

The paper's evaluation speaks in CDFs and percentiles; this module
centralises that arithmetic (used by the occupancy analyzer, the latency
tracker and the Fig 15 sensor study) and the grid bisection behind the
range and sensitivity searches.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.errors import ConfigurationError


def empirical_cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) points of the empirical CDF.

    >>> empirical_cdf([3.0, 1.0])
    [(1.0, 0.5), (3.0, 1.0)]
    """
    ordered = sorted(samples)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100].

    >>> percentile([0.0, 1.0], 50)
    0.5
    """
    if not samples:
        raise ConfigurationError("cannot take a percentile of no samples")
    if not (0.0 <= q <= 100.0):
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q / 100.0 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    if ordered[low] == ordered[high]:
        return ordered[low]
    frac = pos - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def first_true(predicate: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest index ``i`` in ``[lo, hi]`` with ``predicate(i)``, else ``hi + 1``.

    Bisects, evaluating at most ``ceil(log2(hi - lo + 2))`` grid points.
    Precondition: ``predicate`` is monotone on the grid (false, then true),
    so the answer is the one a linear scan up from ``lo`` finds.

    >>> first_true(lambda i: i * 0.5 >= 3.2, 0, 20)
    7
    """
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
