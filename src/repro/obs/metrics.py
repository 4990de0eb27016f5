"""The metrics registry: named, labelled instruments for the whole stack.

Every layer of the simulator registers instruments here — DCF collision
counters, per-channel airtime, txqueue depth, injector duty cycle, harvester
chain calls — playing the role the router-side counters and tcpdump statistics
played in the paper's evaluation (§4). Instruments are addressed by a dotted
lowercase name (``layer.component.metric``, see ``docs/observability.md``)
plus a label dict, so ``registry.counter("mac.medium.collisions", channel=6)``
always resolves to the same underlying counter.

Three instrument types:

* :class:`Counter` — monotonically increasing total (float increments OK);
* :class:`Gauge` — a value that goes up and down;
* :class:`Histogram` — fixed-bucket distribution plus a deterministic
  streaming reservoir for quantile estimates.

The registry is deliberately simulation-agnostic: it never touches the event
loop or any random stream, so enabling or disabling observability can never
perturb a seeded run. A disabled registry hands out shared no-op instruments
whose mutators are empty methods, which is the ``--no-obs`` escape hatch.
"""

from __future__ import annotations

import bisect
import collections
import json
import re
from functools import reduce
from operator import add
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.errors import ObservabilityError

#: ``layer.component.metric`` — lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Default histogram bucket upper bounds (generic small-count scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Reservoir size bound for streaming quantiles; beyond it the reservoir is
#: decimated 2:1 and the admission stride doubles (deterministic — no RNG).
_RESERVOIR_MAX = 512

LabelValue = Union[str, int, float, bool]
Labels = Tuple[Tuple[str, LabelValue], ...]


def _freeze_labels(labels: Dict[str, LabelValue]) -> Labels:
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared identity for all instrument types."""

    kind = "instrument"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> Dict[str, LabelValue]:
        """Labels as a plain dict (for export)."""
        return dict(self.labels)

    def _base_record(self) -> Dict[str, Any]:
        return {"type": self.kind, "name": self.name, "labels": self.label_dict}

    def to_record(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{labels}}}>"


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def inc_batch(self, amounts: Sequence[float]) -> None:
        """Add each of ``amounts`` in order, as sequential :meth:`inc` calls.

        The additions are replayed left to right (``functools.reduce`` over
        ``operator.add``) rather than summed, so a float total ends
        bit-identical to the per-event path (``sum()`` is compensated on
        Python >= 3.12 and would round differently).
        """
        if amounts and min(amounts) < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {min(amounts)})"
            )
        self.value = reduce(add, amounts, self.value)

    def to_record(self) -> Dict[str, Any]:
        record = self._base_record()
        record["value"] = self.value
        return record


class Gauge(_Instrument):
    """A point-in-time value that may move in either direction."""

    kind = "gauge"

    __slots__ = ("value", "updates")

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)
        self.updates += 1

    def set_batch(self, last: float, sets: int) -> None:
        """Record ``sets`` sequential :meth:`set` calls, the last of ``last``.

        Only the final value of a run of sets survives, so a component can
        count its sets and remember the last value instead of calling
        :meth:`set` on every event.
        """
        if sets > 0:
            self.value = float(last)
            self.updates += sets

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge up by ``amount``."""
        self.value += amount
        self.updates += 1

    def dec(self, amount: float = 1.0) -> None:
        """Shift the gauge down by ``amount``."""
        self.value -= amount
        self.updates += 1

    def to_record(self) -> Dict[str, Any]:
        record = self._base_record()
        record["value"] = self.value
        record["updates"] = self.updates
        return record


class Histogram(_Instrument):
    """Fixed-bucket distribution with a streaming quantile reservoir.

    Bucket ``i`` counts observations ``v <= edges[i]``; one overflow bucket
    counts the rest. Quantiles are estimated from a bounded reservoir thinned
    deterministically (keep-every-``stride``-th), so histograms never perturb
    seeded runs and memory stays O(1) for arbitrarily long simulations.
    """

    kind = "histogram"

    __slots__ = (
        "edges",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "_reservoir",
        "_stride",
        "_seen",
    )

    def __init__(
        self,
        name: str,
        labels: Labels,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if list(edges) != sorted(set(edges)):
            raise ObservabilityError(
                f"histogram {name!r} bucket edges must be strictly increasing"
            )
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []
        self._stride = 1
        self._seen = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._seen % self._stride == 0:
            self._reservoir.append(value)
            if len(self._reservoir) > _RESERVOIR_MAX:
                self._reservoir = self._reservoir[::2]
                self._stride *= 2
        self._seen += 1

    def observe_batch(self, values: Sequence[float]) -> None:
        """Record ``values`` in order, as sequential :meth:`observe` calls.

        Bit-identical to observing each (NaN-free) value in turn: the same
        bucket counts, sum, min/max, and the same reservoir contents, stride
        and decimation points. This is what lets hot-path components buffer
        their observations and publish them in bulk
        (:mod:`repro.obs.hotpath`) without perturbing any exported record.

        >>> a, b = Histogram("demo", (), (1, 5)), Histogram("demo", (), (1, 5))
        >>> values = [3, 0.1, 7] * 500
        >>> for value in values: a.observe(value)
        >>> b.observe_batch(values)
        >>> (a.to_record() == b.to_record(), a._reservoir == b._reservoir,
        ...  a._stride == b._stride, a._seen == b._seen)
        (True, True, True, True)
        """
        n = len(values)
        if not n:
            return
        # Buckets, min and max only need each distinct value once. Equal
        # values share one key, the first seen, as the scalar path keeps it.
        counts = collections.Counter(values)
        edges = self.edges
        buckets = self.bucket_counts
        for value, count in counts.items():
            buckets[bisect.bisect_left(edges, float(value))] += count
        self.count += n
        low = min(counts)
        if low < self.min:
            self.min = float(low)
        high = max(counts)
        if high > self.max:
            self.max = float(high)
        # Replayed left to right, not ``sum()``ed: that is compensated on
        # Python >= 3.12.
        self.sum = reduce(add, values, self.sum)
        # Admitted samples are the positions where ``_seen % _stride == 0``;
        # take them a slice at a time, decimating whenever the reservoir
        # overflows exactly where the scalar path would.
        reservoir = self._reservoir
        stride = self._stride
        seen = self._seen
        start = 0
        while True:
            start += -(seen + start) % stride
            if start >= n:
                break
            room = _RESERVOIR_MAX + 1 - len(reservoir)
            admitted = values[start:start + room * stride:stride]
            reservoir.extend(map(float, admitted))
            if len(admitted) < room:
                break
            reservoir = reservoir[::2]
            start += (room - 1) * stride + 1
            stride *= 2
        self._reservoir = reservoir
        self._stride = stride
        self._seen = seen + n

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the reservoir.

        Edge cases are part of the contract (SLO evaluators and the span
        summary rely on them):

        * **empty histogram** — returns ``0.0``, never raises;
        * **single observation** — returns that observation for every ``q``;
        * ``q`` outside [0, 1] (NaN included) raises
          :class:`~repro.errors.ObservabilityError` — an out-of-range
          quantile is a caller bug, not a data condition.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Convenience alias over :meth:`quantile` so consumers (the span
        summary, ``repro compare`` tooling) never re-implement bucket math;
        it inherits :meth:`quantile`'s documented edge cases — ``0.0`` on an
        empty histogram, the sole observation when only one was recorded,
        and :class:`~repro.errors.ObservabilityError` outside [0, 100].

        >>> h = Histogram("demo.wall_s", (), buckets=(1, 10))
        >>> for value in range(1, 11):
        ...     h.observe(float(value))
        >>> h.percentile(50.0)
        6.0
        >>> Histogram("empty", (), buckets=(1,)).percentile(99.0)
        0.0
        """
        if not 0.0 <= q <= 100.0:
            raise ObservabilityError(f"percentile must be in [0, 100], got {q}")
        return self.quantile(q / 100.0)

    def to_record(self) -> Dict[str, Any]:
        record = self._base_record()
        record.update(
            count=self.count,
            sum=self.sum,
            mean=self.mean,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            buckets=[
                [edge, count] for edge, count in zip(self.edges, self.bucket_counts)
            ]
            + [["+inf", self.bucket_counts[-1]]],
            quantiles={
                "0.5": self.quantile(0.5),
                "0.9": self.quantile(0.9),
                "0.99": self.quantile(0.99),
            },
        )
        return record


# --------------------------------------------------------------- no-op mode


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def inc_batch(self, amounts: Sequence[float]) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_batch(self, last: float, sets: int) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_batch(self, values: Sequence[float]) -> None:
        pass


_NULL_LABELS: Labels = ()
NULL_COUNTER = _NullCounter("noop", _NULL_LABELS)
NULL_GAUGE = _NullGauge("noop", _NULL_LABELS)
NULL_HISTOGRAM = _NullHistogram("noop", _NULL_LABELS, buckets=(1.0,))


# ----------------------------------------------------------------- registry


class MetricsRegistry:
    """Instrument factory and export point.

    Parameters
    ----------
    enabled:
        When False every factory method returns a shared no-op instrument,
        making instrumentation calls effectively free (the ``--no-obs``
        mode). The flag is fixed at construction; the obs runtime swaps
        whole registries to flip modes.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._instruments: "Dict[Tuple[str, Labels], _Instrument]" = {}

    @property
    def enabled(self) -> bool:
        """Whether this registry records anything."""
        return self._enabled

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self._instruments.values())

    # ------------------------------------------------------------- factories

    def _get(self, cls, name: str, labels: Dict[str, LabelValue], **kwargs):
        if not _NAME_RE.match(name):
            raise ObservabilityError(
                f"metric name {name!r} is not dotted lowercase "
                "(expected layer.component.metric)"
            )
        key = (name, _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls) or type(instrument) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        """Get or create the counter ``name{labels}``."""
        if not self._enabled:
            return NULL_COUNTER
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        if not self._enabled:
            return NULL_GAUGE
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: LabelValue,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``.

        ``buckets`` only applies on first creation; later lookups reuse the
        existing edges.
        """
        if not self._enabled:
            return NULL_HISTOGRAM
        return self._get(Histogram, name, labels, buckets=buckets)

    # --------------------------------------------------------------- queries

    def get(self, name: str, **labels: LabelValue) -> Optional[_Instrument]:
        """Look up an existing instrument without creating it."""
        return self._instruments.get((name, _freeze_labels(labels)))

    def find(self, prefix: str) -> List[_Instrument]:
        """All instruments whose name starts with ``prefix``."""
        return [
            instrument
            for instrument in self._instruments.values()
            if instrument.name.startswith(prefix)
        ]

    def value(self, name: str, default: float = 0.0, **labels: LabelValue) -> float:
        """Scalar value of a counter/gauge, or ``default`` when absent."""
        instrument = self.get(name, **labels)
        if instrument is None or not hasattr(instrument, "value"):
            return default
        return instrument.value  # type: ignore[union-attr]

    # ---------------------------------------------------------------- export

    def snapshot(self) -> List[Dict[str, Any]]:
        """One JSON-safe record per instrument, in registration order."""
        return [instrument.to_record() for instrument in self._instruments.values()]

    def to_dict(self) -> Dict[str, Any]:
        """The whole registry as one JSON-safe dict."""
        return {"metrics": self.snapshot()}

    def to_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write one JSON line per instrument; returns the line count."""
        records = self.snapshot()
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        else:
            for record in records:
                target.write(json.dumps(record) + "\n")
        return len(records)

    def clear(self) -> None:
        """Drop every instrument (fresh run)."""
        self._instruments.clear()


#: Shared disabled registry for components constructed with ``metrics=None``
#: in an unobserved context.
NULL_REGISTRY = MetricsRegistry(enabled=False)
