"""Deferred publication of hot-path instruments.

The components on the discrete-event hot path — the medium, stations and
their device queues, the IP_Power gate, occupancy analyzers and the power
injector — run millions of times per experiment, so a registry call on
every event adds up to millions of calls per fig 6a part. They keep plain
tallies instead (most of which they need anyway) plus ordered value
buffers, and one :class:`Tallies` per component publishes them:

* a counter publishes the growth of an integer tally since the last
  publication (:meth:`Tallies.add_counter`);
* a float counter replays its buffered increments left to right
  (:meth:`Tallies.add_sums`, flushed by ``Counter.inc_batch``);
* a gauge publishes its set count and last value
  (:meth:`Tallies.add_gauge`, ``Gauge.set_batch``);
* a histogram flushes its ordered buffer (:meth:`Tallies.add_histogram`,
  ``Histogram.observe_batch``).

Each batch method is bit-identical to the per-event calls it replaces, so
exported records do not change. A simulator publishes every registered
``Tallies`` each time :meth:`~repro.sim.engine.Simulator.run` returns,
after the run-end hooks have settled lazily-advanced state (the injector's
idle-tick fast-forward). While it runs, it empties the buffers every
:data:`FLUSH_INTERVAL` dispatches (:meth:`Tallies.flush`). An ordinary
event adds about one value to a buffer, so the cadence keeps every buffer
under :data:`BUFFER_CAP` without a length check on each append, which cost
more than the flushes. The one path that appends a burst, the injector
settling a dormant spell, flushes the gate's buffer itself whenever it
reaches ``FLUSH_INTERVAL`` values, however long the spell. Between
publications the hot-path instruments lag the simulation;
``Simulator.publish_tallies`` brings them up to date.

Components build a ``Tallies`` only when their registry is enabled: with
observability off nothing is buffered and nothing is published.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram

#: The most values a hot-path buffer holds between events: the bound on
#: the memory a long run spends on buffering.
BUFFER_CAP = 16384

#: Dispatches between buffer flushes of a running simulator, and the fill
#: at which a burst flushes. Half the cap leaves room for the events in
#: between.
FLUSH_INTERVAL = BUFFER_CAP // 2


class Tallies:
    """The deferred instruments of one hot-path component.

    Parameters
    ----------
    owner:
        The component whose attributes hold the tallies; the attribute
        names given to :meth:`add_counter` and :meth:`add_gauge` may be
        dotted paths.
    """

    __slots__ = (
        "_owner", "_counters", "_gauges", "_replays", "_sums", "_histograms",
    )

    def __init__(self, owner: object) -> None:
        self._owner = owner
        self._counters: List[list] = []
        self._gauges: List[list] = []
        self._replays: List[list] = []
        self._sums: List[Tuple[Counter, List[float]]] = []
        self._histograms: List[Tuple[Histogram, List[float]]] = []

    def add_counter(self, counter: Counter, tally: str) -> None:
        """Publish ``counter`` from the owner's integer attribute ``tally``."""
        self._counters.append([counter, attrgetter(tally), 0])

    def add_gauge(self, gauge: Gauge, sets: str, last: str) -> None:
        """Publish ``gauge`` from the owner's set count and last value."""
        self._gauges.append([gauge, attrgetter(sets), attrgetter(last), 0])

    def add_sums(
        self, counter: Counter, values: Optional[List[float]] = None
    ) -> List[float]:
        """Float increments that publish to ``counter`` in order.

        ``values`` is an append-only list the owner keeps anyway, replayed
        from where the last publication stopped; without it, a new buffer
        is returned that each flush empties.
        """
        if values is not None:
            self._replays.append([counter, values, 0])
            return values
        buffer: List[float] = []
        self._sums.append((counter, buffer))
        return buffer

    def add_histogram(self, histogram: Histogram) -> List[float]:
        """A buffer whose values publish to ``histogram`` in order."""
        buffer: List[float] = []
        self._histograms.append((histogram, buffer))
        return buffer

    def flush(self) -> None:
        """Empty the buffers into their instruments.

        This is all a long run needs mid-run: counters, gauges and replayed
        lists hold no extra memory, so they wait for :meth:`publish`.
        """
        for counter, buffer in self._sums:
            if buffer:
                counter.inc_batch(buffer)
                buffer.clear()
        for histogram, buffer in self._histograms:
            if buffer:
                histogram.observe_batch(buffer)
                buffer.clear()

    def publish(self) -> None:
        """Bring every instrument up to date."""
        owner = self._owner
        for entry in self._counters:
            counter, tally, published = entry
            value = tally(owner)
            if value != published:
                counter.inc(value - published)
                entry[2] = value
        for entry in self._gauges:
            gauge, sets, last, published = entry
            count = sets(owner)
            if count != published:
                gauge.set_batch(last(owner), count - published)
                entry[3] = count
        for entry in self._replays:
            counter, values, published = entry
            if len(values) > published:
                counter.inc_batch(values[published:])
                entry[2] = len(values)
        self.flush()
