"""Core discrete-event simulator.

A :class:`Simulator` owns a priority queue of timestamped events. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the main loop dispatches
them in time order. Ties are broken by insertion order so runs are fully
deterministic for a given seed.

The engine is synchronous and single-threaded; "processes" in the MAC layer
are small state machines that re-schedule themselves.

Heap layout: the queue is an array of ``(time, seq, event)`` tuples, so
``heapq`` sift comparisons resolve on the float/int pair at C speed without
ever calling back into Python (:class:`Event` keeps ``__lt__`` only for
explicit comparisons). Cancellation is tombstone-based — ``Event.cancel``
flips a flag and the dispatcher discards the entry when it surfaces — and
:meth:`Simulator.schedule_at` compacts the array when tombstones outnumber
live entries, so cancel-heavy workloads stay O(live) in memory.

Periodic sources (beacons, injector ticks) use
:meth:`Simulator.schedule_periodic`: the engine re-arms the *same*
:class:`Event` object after each callback return, exactly as if the callback
had rescheduled itself as its last statement (same sequence-number order,
same times via the ``t += period`` float recurrence), but without a fresh
allocation per tick. A component that keeps at most one pending occurrence
of a one-shot kind (the medium's DCF round and transmission completion)
puts its dispatched event back with :meth:`Simulator.rearm`, which draws
the sequence number ``schedule`` would have.

Self-profiling: when observability is on (the default), the dispatcher
tallies per-callback-name dispatch counts and cumulative wall-clock time,
the heap high-water mark, and cancelled events into :attr:`Simulator.stats`,
so the hot callbacks of a long ``fig14``/``table1`` run are visible without
an external profiler. Dispatch counts are exact; wall-clock is
stride-sampled (every :data:`TIMING_STRIDE`-th occurrence of each callback
name is timed with ``perf_counter`` and scaled by the dispatches each sample
stands for), which keeps the profiled dispatch loop within a few percent of
the unobserved one. Profiling never touches simulation time or any random
stream, so observed and unobserved runs produce identical results.

Each event kind is additionally attributed to a *component* — the class (or
module) that owns its callback, resolved once on the kind's first dispatch —
and to the sim-time window it was active in (first/last dispatch time).
Counts, components and sim-time bounds are exactly reproducible at equal
seed; only the sampled wall-clock varies between hosts. The attribution
profiler (:mod:`repro.obs.profile`) turns these into hot-spot tables and
collapsed-stack flame output.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.obs.hotpath import FLUSH_INTERVAL
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs.hotpath import Tallies

#: Wall-clock sampling stride (power of two): dispatches N, 2N, 3N, ... of
#: each callback name are timed, and the sampled time is scaled by the
#: dispatches per sample. The cold first dispatch (0) is never timed, so a
#: kind dispatched at most N times reads no wall. Counts stay exact; only
#: the timing is sampled.
#: On a fig 6a part, N=64 keeps every kind's share of the profiled wall
#: within 1.6 points of timing every dispatch (N=4: within 0.5), while N=4
#: costs about four points of the 15 % observability-overhead guard
#: (docs/performance.md, "Hot-path instrumentation").
TIMING_STRIDE = 64
_TIMING_MASK = TIMING_STRIDE - 1


class KindProfile:
    """One event kind's profile: exact dispatch count, sampled wall time
    and the first/last simulation times it dispatched at.

    Every :class:`Event` of a profiling simulator holds its kind's profile
    from creation, so a dispatch updates it without a lookup by name.
    """

    __slots__ = ("count", "wall_s", "first", "last")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0
        self.first = 0.0
        self.last = 0.0

    @property
    def scaled_wall_s(self) -> float:
        """The sampled wall time, scaled to all of the kind's dispatches.

        Dispatches ``TIMING_STRIDE``, ``2 * TIMING_STRIDE``, ... are the
        samples, each standing for ``count / samples`` dispatches; a kind
        with none (at most :data:`TIMING_STRIDE` dispatches) reads 0.
        """
        count = self.count
        samples = max(count - 1, 0) // TIMING_STRIDE
        return self.wall_s * count / samples if samples else 0.0


#: Tombstone-compaction floor: the heap is rebuilt (dropping cancelled
#: entries) only when at least this many tombstones are present *and* they
#: outnumber live entries, amortising the O(n) rebuild against the cancels
#: that earned it.
COMPACT_MIN_TOMBSTONES = 64


def _component_of(callback: Callable[..., Any]) -> str:
    """Dotted owner of a callback, resolved once per event kind.

    Bound methods attribute to their class (``repro.core.injector.PowerInjector``),
    plain functions to their defining module (plus the enclosing scope for
    nested functions), ``functools.partial`` unwraps to its target. The
    result is a pure function of the code object, so attribution is
    identical across runs and hosts.
    """
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None and callable(func):
        return _component_of(func)
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        cls = owner if isinstance(owner, type) else type(owner)
        module = getattr(cls, "__module__", "") or "builtins"
        return f"{module}.{cls.__qualname__}"
    module = getattr(callback, "__module__", None) or "unknown"
    qualname = (getattr(callback, "__qualname__", "") or "").replace(
        ".<locals>", ""
    )
    if "." in qualname:
        return f"{module}.{qualname.rsplit('.', 1)[0]}"
    return module


class SimulatorStats:
    """Self-profiling counters for one :class:`Simulator`.

    Attributes
    ----------
    dispatched:
        Total events dispatched.
    cancelled:
        Total events cancelled via :meth:`Event.cancel`.
    heap_high_watermark:
        Largest number of heap entries ever pending at once (cancelled
        entries included — they occupy heap slots until popped).
    heap_tombstones:
        Cancelled entries currently occupying heap slots (drives the
        compaction heuristic; bookkeeping only).
    compactions:
        Times the heap was rebuilt to shed tombstones.
    callback_counts:
        Dispatch count per event name (exact).
    callback_wall_s:
        Cumulative host wall-clock seconds per event name, estimated by
        timing every :data:`TIMING_STRIDE`-th occurrence (only populated
        when profiling is on).
    callback_components:
        Owning component per event name (class or module of the callback),
        resolved on the kind's first dispatch.
    callback_sim_bounds:
        ``name -> [first, last]`` simulation times the kind dispatched at.
    """

    __slots__ = (
        "profiling",
        "dispatched",
        "cancelled",
        "heap_high_watermark",
        "heap_tombstones",
        "compactions",
        "_kinds",
        "_profile",
        "_components",
    )

    def __init__(self, profiling: bool = True) -> None:
        self.profiling = profiling
        self.dispatched = 0
        self.cancelled = 0
        self.heap_high_watermark = 0
        self.heap_tombstones = 0
        self.compactions = 0
        # Every kind scheduled while profiling, and the dispatched ones in
        # first-dispatch order (the export order).
        self._kinds: Dict[str, KindProfile] = {}
        self._profile: Dict[str, KindProfile] = {}
        self._components: Dict[str, str] = {}

    def _first_dispatch(self, event: "Event", time: float) -> None:
        """Register ``event``'s kind on its first dispatch."""
        kind = event.profile
        kind.first = time
        self._profile[event.name] = kind
        self._components[event.name] = _component_of(event.callback)

    @property
    def callback_counts(self) -> Dict[str, int]:
        """Dispatch count per event name."""
        return {name: kind.count for name, kind in self._profile.items()}

    @property
    def callback_wall_s(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds per event name."""
        return {name: kind.scaled_wall_s for name, kind in self._profile.items()}

    @property
    def callback_components(self) -> Dict[str, str]:
        """Owning component per event name."""
        return dict(self._components)

    @property
    def callback_sim_bounds(self) -> Dict[str, List[float]]:
        """``[first, last]`` dispatch sim-times per event name."""
        return {name: [kind.first, kind.last] for name, kind in self._profile.items()}

    @property
    def total_wall_s(self) -> float:
        """Wall-clock seconds spent inside callbacks."""
        return sum(kind.scaled_wall_s for kind in self._profile.values())

    def hot_callbacks(self, limit: int = 10) -> List[Tuple[str, int, float]]:
        """``(name, count, wall_s)`` rows, costliest first."""
        rows = [
            (name, kind.count, kind.scaled_wall_s)
            for name, kind in self._profile.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows[:limit]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe export of the whole profile."""
        return {
            "type": "engine",
            "dispatched": self.dispatched,
            "cancelled": self.cancelled,
            "heap_high_watermark": self.heap_high_watermark,
            "callback_counts": self.callback_counts,
            "callback_wall_s": self.callback_wall_s,
            "callback_components": self.callback_components,
            "callback_sim_bounds": self.callback_sim_bounds,
        }

    def report(self, limit: int = 10) -> str:
        """Human-readable profile summary."""
        lines = [
            f"events: {self.dispatched} dispatched, {self.cancelled} cancelled, "
            f"heap high-water {self.heap_high_watermark}",
        ]
        for name, count, wall in self.hot_callbacks(limit):
            lines.append(f"  {name:<24} {count:>9} calls  {wall:9.4f} s")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line profile digest (span labels, progress lines).

        >>> stats = SimulatorStats()
        >>> stats.dispatched, stats.cancelled = 120, 3
        >>> stats.heap_high_watermark = 17
        >>> stats.summary()
        'dispatched=120 cancelled=3 heap_high=17 callbacks=0 wall=0.0000s'
        """
        return (
            f"dispatched={self.dispatched} cancelled={self.cancelled} "
            f"heap_high={self.heap_high_watermark} "
            f"callbacks={len(self._profile)} wall={self.total_wall_s:.4f}s"
        )


class Event:
    """A scheduled callback.

    Events are returned by the ``schedule*`` methods and may be cancelled.
    Cancellation is lazy: the heap entry stays in place as a tombstone and
    is skipped when popped, which keeps cancellation O(1); the simulator
    compacts the heap when tombstones pile up.

    Periodic events (:meth:`Simulator.schedule_periodic`) carry a non-None
    ``period`` and are re-armed by the dispatcher after each callback return
    — the same object cycles through the heap for the life of the source.
    """

    __slots__ = (
        "time", "seq", "callback", "args", "cancelled", "name", "stats",
        "period", "heaped", "profile",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        name: str = "",
        stats: Optional[SimulatorStats] = None,
        period: Optional[float] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.name = name or getattr(callback, "__name__", "event")
        self.stats = stats
        self.period = period
        self.heaped = False
        #: The kind's :class:`KindProfile` when the simulator profiles.
        self.profile: Optional[KindProfile] = None
        if stats is not None and stats.profiling:
            kinds = stats._kinds
            profile = kinds.get(self.name)
            if profile is None:
                profile = kinds[self.name] = KindProfile()
            self.profile = profile

    def cancel(self) -> None:
        """Mark the event so the dispatcher skips it."""
        if not self.cancelled:
            self.cancelled = True
            stats = self.stats
            if stats is not None:
                stats.cancelled += 1
                if self.heaped:
                    stats.heap_tombstones += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event {self.name!r} t={self.time:.9f} {state}>"


class Simulator:
    """Single-threaded discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds.
    observe:
        Whether this simulator profiles itself and exposes the process-wide
        metrics registry/trace recorder/span recorder to components (via
        :attr:`metrics`/:attr:`trace`/:attr:`spans`). ``None`` (default) follows the
        global observability mode (see :mod:`repro.obs.runtime`); False is
        the per-simulator ``--no-obs`` escape hatch.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> fired
    ['hello']
    >>> sim.now
    1.5
    """

    def __init__(self, start_time: float = 0.0, observe: Optional[bool] = None) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._dispatched = 0
        self._run_end_hooks: List[Callable[[], None]] = []
        self._tallies: List["Tallies"] = []
        if observe is None:
            observe = obs_runtime.enabled()
        self.observe = bool(observe)
        self.stats = SimulatorStats(profiling=self.observe)
        if self.observe:
            self.metrics = obs_runtime.get_registry()
            self.trace = obs_runtime.get_trace()
            self.spans = obs_runtime.get_spans()
            obs_runtime.track_simulator(self.stats)
        else:
            self.metrics = obs_runtime.null_registry()
            self.spans = obs_runtime.null_spans()
            self.trace = TraceRecorder(enabled_kinds=[])
        #: Optional hook invoked with each :class:`Event` just before its
        #: callback runs (tracing/debugging; must not mutate the event).
        self.on_event: Optional[Callable[[Event], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-dispatched, not-cancelled events."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    @property
    def dispatched_events(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    def add_run_end_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook()`` to run every time :meth:`run` returns cleanly.

        Hooks fire after the clock has settled on its final value (including
        the advance-to-``until`` on queue drain) and may not schedule past
        state: they exist so lazily-settled components (the injector's
        idle-tick fast-forward, see :mod:`repro.core.injector`) can
        materialise their bulk state before the driver reads it.
        """
        self._run_end_hooks.append(hook)

    def add_tallies(self, tallies: "Tallies") -> None:
        """Publish a component's hot-path ``tallies`` with this simulator.

        :meth:`run` empties their buffers every
        :data:`~repro.obs.hotpath.FLUSH_INTERVAL` dispatches and publishes
        them when it returns cleanly, after the run-end hooks, so the
        instruments (:mod:`repro.obs.hotpath`) see the settled state.
        """
        self._tallies.append(tallies)

    def publish_tallies(self) -> None:
        """Bring every registered component's hot-path instruments up to date."""
        for tallies in self._tallies:
            tallies.publish()

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Body duplicates :meth:`schedule_at` rather than forwarding to it:
        this is a hot scheduling entry point (traffic sources, TCP timers),
        and the extra call frame is measurable at millions of events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay!r}")
        time = self._now + delay
        stats = self.stats
        event = Event(time, next(self._seq), callback, args, name, stats)
        event.heaped = True
        heap = self._heap
        if (
            stats.heap_tombstones >= COMPACT_MIN_TOMBSTONES
            and stats.heap_tombstones * 2 >= len(heap)
        ):
            self._compact()
            heap = self._heap
        heapq.heappush(heap, (time, event.seq, event))
        if len(heap) > stats.heap_high_watermark:
            stats.heap_high_watermark = len(heap)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={self._now!r}"
            )
        stats = self.stats
        event = Event(time, next(self._seq), callback, args, name, stats)
        event.heaped = True
        heap = self._heap
        if (
            stats.heap_tombstones >= COMPACT_MIN_TOMBSTONES
            and stats.heap_tombstones * 2 >= len(heap)
        ):
            self._compact()
            heap = self._heap
        heapq.heappush(heap, (time, event.seq, event))
        if len(heap) > stats.heap_high_watermark:
            stats.heap_high_watermark = len(heap)
        return event

    def rearm(self, event: Event, delay: float, *args: Any) -> Event:
        """Put the dispatched one-shot ``event`` back on the heap ``delay``
        seconds from now, to call its callback with ``args``.

        Equivalent to ``schedule(delay, event.callback, *args,
        name=event.name)`` — the same fresh sequence number, compaction
        check and high-water mark — without allocating a new
        :class:`Event`. A component that keeps at most one pending
        occurrence of a kind (the medium's ``dcf_round`` and ``tx_done``)
        reuses one object for it. The event must have been dispatched:
        re-arming a pending, cancelled or periodic event raises.
        """
        if event.heaped or event.cancelled or event.period is not None:
            raise SimulationError(
                f"can only re-arm a dispatched one-shot event, not {event!r}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay!r}")
        time = self._now + delay
        event.time = time
        event.seq = seq = next(self._seq)
        event.args = args
        event.heaped = True
        stats = self.stats
        heap = self._heap
        if (
            stats.heap_tombstones >= COMPACT_MIN_TOMBSTONES
            and stats.heap_tombstones * 2 >= len(heap)
        ):
            self._compact()
            heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > stats.heap_high_watermark:
            stats.heap_high_watermark = len(heap)
        return event

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
        first_delay: float = 0.0,
    ) -> Event:
        """Schedule ``callback(*args)`` every ``period`` seconds.

        The first firing happens ``first_delay`` seconds from now; after each
        callback return the dispatcher re-arms the same :class:`Event` at
        ``time + period`` (the exact float recurrence a self-rescheduling
        callback would produce), unless the event was cancelled. Mutating
        :attr:`Event.period` retunes the cadence from the next re-arm on.
        """
        if period <= 0:
            raise SimulationError(f"period must be > 0, got {period!r}")
        event = self.schedule(first_delay, callback, *args, name=name)
        event.period = float(period)
        return event

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (amortised O(n))."""
        live = [entry for entry in self._heap if not entry[2].cancelled]
        for entry in self._heap:
            ev = entry[2]
            if ev.cancelled:
                ev.heaped = False
        heapq.heapify(live)
        self._heap = live
        self.stats.heap_tombstones = 0
        self.stats.compactions += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. Events at exactly
            ``until`` are dispatched. When the queue drains earlier, the
            clock is advanced to ``until`` so periodic samplers observe a
            well-defined end time.
        max_events:
            Safety valve against runaway self-rescheduling loops.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        dispatched_this_run = 0
        stats = self.stats
        profiling = stats.profiling
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq_counter = self._seq
        clock = perf_counter
        mask = _TIMING_MASK
        # Hoisted per-dispatch conditionals: comparing against +inf is the
        # same branch as a bound but drops the per-event None checks.
        limit = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        # The budget check doubles as the hot-path buffer flush cadence.
        checkpoint = min(budget, FLUSH_INTERVAL)
        run_span = self.spans.begin("sim.engine.run", sim_start_s=self._now)
        status = "ok"
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    event.heaped = False
                    stats.heap_tombstones -= 1
                    continue
                if time > limit:
                    break
                pop(heap)
                event.heaped = False
                self._now = time
                if self.on_event is not None:
                    self.on_event(event)
                if profiling:
                    kind = event.profile
                    count = kind.count
                    if count & mask:
                        event.callback(*event.args)
                    elif not count:
                        # A kind's first call is cold (imports, caches),
                        # so it registers the kind untimed.
                        stats._first_dispatch(event, time)
                        event.callback(*event.args)
                    else:
                        started = clock()
                        event.callback(*event.args)
                        kind.wall_s += clock() - started
                    kind.count = count + 1
                    kind.last = time
                else:
                    event.callback(*event.args)
                period = event.period
                if period is not None and not event.cancelled:
                    # Re-arm in place: same order a callback rescheduling
                    # itself as its last statement would produce.
                    time += period
                    event.time = time
                    event.seq = next(seq_counter)
                    event.heaped = True
                    heap = self._heap  # the callback may have compacted
                    push(heap, (time, event.seq, event))
                    if len(heap) > stats.heap_high_watermark:
                        stats.heap_high_watermark = len(heap)
                else:
                    heap = self._heap
                dispatched_this_run += 1
                if dispatched_this_run >= checkpoint:
                    if dispatched_this_run >= budget:
                        break
                    for tallies in self._tallies:
                        tallies.flush()
                    checkpoint = min(
                        budget, dispatched_this_run + FLUSH_INTERVAL
                    )
        except BaseException:
            status = "error"
            raise
        finally:
            self._running = False
            self._dispatched += dispatched_this_run
            stats.dispatched += dispatched_this_run
            if until is not None and self._now < until and status == "ok":
                self._now = until
            if status == "ok":
                for hook in self._run_end_hooks:
                    hook()
                self.publish_tallies()
            self.spans.end(
                run_span,
                sim_end_s=self._now,
                status=status,
                dispatched=dispatched_this_run,
            )

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (bounded by ``max_events``)."""
        self.run(max_events=max_events)
        if self.pending_events:
            raise SimulationError(
                f"event budget of {max_events} exhausted with "
                f"{self.pending_events} events still pending"
            )
