"""Statistics and reporting helpers shared across the library.

The paper's evaluation speaks in CDFs, percentiles and per-window series;
this module centralises that arithmetic (used by the occupancy analyzer,
the latency tracker and the figure benchmarks), the grid bisection behind
the range and sensitivity searches, and small text-table and CSV utilities
for the regenerated reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

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


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean (errors on empty input, unlike statistics.fmean)."""
    if not samples:
        raise ConfigurationError("cannot take the mean of no samples")
    return sum(samples) / len(samples)


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


@dataclass(frozen=True)
class SampleSummary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    p10: float
    median: float
    p90: float
    minimum: float
    maximum: float


def summarize(samples: Sequence[float]) -> SampleSummary:
    """Compute the summary statistics the paper's figures report."""
    if not samples:
        raise ConfigurationError("cannot summarise no samples")
    return SampleSummary(
        count=len(samples),
        mean=mean(samples),
        p10=percentile(samples, 10),
        median=percentile(samples, 50),
        p90=percentile(samples, 90),
        minimum=min(samples),
        maximum=max(samples),
    )


class TextTable:
    """A small aligned-text table builder for experiment reports.

    >>> table = TextTable(["scheme", "Mb/s"])
    >>> table.add_row(["baseline", 17.1])
    >>> print(table.render())
    scheme      Mb/s
    baseline    17.1
    """

    def __init__(self, headers: Sequence[str]) -> None:
        if not headers:
            raise ConfigurationError("table needs at least one column")
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[Union[str, float, int]]) -> None:
        """Append a row (floats rendered with one decimal by default)."""
        if len(values) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        rendered = []
        for value in values:
            if isinstance(value, float):
                rendered.append(f"{value:.1f}")
            else:
                rendered.append(str(value))
        self.rows.append(rendered)

    def render(self, padding: int = 4) -> str:
        """Render with per-column alignment."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        for cells in [self.headers] + self.rows:
            line = (" " * padding).join(
                cell.ljust(widths[i]) for i, cell in enumerate(cells)
            )
            lines.append(line.rstrip())
        return "\n".join(lines)


def series_to_csv(
    columns: Dict[str, Sequence[float]],
    target: Union[str, io.TextIOBase, None] = None,
) -> str:
    """Write aligned series as CSV (e.g. a home's occupancy log).

    Parameters
    ----------
    columns:
        Column name -> samples; all columns must be equally long.
    target:
        File path or text stream; ``None`` returns the CSV as a string.
    """
    if not columns:
        raise ConfigurationError("need at least one column")
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise ConfigurationError(f"column lengths differ: {sorted(lengths)}")
    names = list(columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(names)
    for row in zip(*(columns[name] for name in names)):
        writer.writerow([f"{value:.6g}" for value in row])
    text = buffer.getvalue()
    if target is None:
        return text
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        target.write(text)
    return text
