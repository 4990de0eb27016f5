"""Process-wide observability state.

Experiment drivers build their own simulators internally (often several per
figure), so the telemetry for one CLI invocation is aggregated here: one
shared :class:`~repro.obs.metrics.MetricsRegistry`, one shared
:class:`~repro.sim.trace.TraceRecorder`, and the
:class:`~repro.sim.engine.SimulatorStats` of every simulator created while
observability is on. ``python -m repro metrics <exp>`` resets this state,
runs the experiment, and exports whatever accumulated.

The state is intentionally *not* thread-local: the simulator is
single-threaded by design and the registry never feeds back into simulation
behaviour, so a plain module-global keeps the hot-path lookup trivial.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_SPANS, Span, SpanRecorder

#: Engine-stats retention bound: long pytest sessions create thousands of
#: simulators; only the most recent window is kept for aggregation.
MAX_TRACKED_SIMULATORS = 256

_enabled: bool = True
_registry: MetricsRegistry = MetricsRegistry(enabled=True)
_trace = None  # created lazily to avoid an import cycle with repro.sim
_trace_kinds: Optional[Sequence[str]] = ()
_spans: SpanRecorder = SpanRecorder(enabled=True)
_sim_stats: Deque[Any] = deque(maxlen=MAX_TRACKED_SIMULATORS)


def enabled() -> bool:
    """Whether newly built simulators observe by default."""
    return _enabled


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (no-op registry when disabled)."""
    return _registry


def null_registry() -> MetricsRegistry:
    """A shared always-disabled registry for explicitly unobserved components."""
    return NULL_REGISTRY


def get_trace():
    """The process-wide trace recorder.

    By default it records *no* kinds (``enabled_kinds=()``): traces are an
    opt-in firehose, enabled per-run via :func:`configure` (the CLI's
    ``trace --kinds`` path) or by tests.
    """
    global _trace
    if _trace is None:
        from repro.sim.trace import TraceRecorder

        _trace = TraceRecorder(enabled_kinds=list(_trace_kinds or []))
    return _trace


def get_spans() -> SpanRecorder:
    """The process-wide span recorder (no-op recorder when disabled)."""
    return _spans


def null_spans() -> SpanRecorder:
    """A shared always-disabled recorder for explicitly unobserved components."""
    return NULL_SPANS


@contextmanager
def span(name: str, sim_start_s: Optional[float] = None, **labels) -> Iterator[Span]:
    """Open a span on the process-wide recorder (see ``repro.obs.spans``).

    The convenience entry point experiment drivers use::

        with runtime.span("experiments.fig5.point", threshold=5):
            ...
    """
    with _spans.span(name, sim_start_s=sim_start_s, **labels) as opened:
        yield opened


def configure(
    enabled: bool = True,
    trace_kinds: Optional[Sequence[str]] = (),
    span_prefix: str = "s",
) -> None:
    """Reset the observability state for a fresh run.

    Parameters
    ----------
    enabled:
        False is the ``--no-obs`` escape hatch: the registry becomes a no-op
        and simulators skip profiling.
    trace_kinds:
        Kinds the shared trace recorder keeps. ``()`` (the default) records
        nothing; ``None`` records every kind.
    span_prefix:
        Id prefix for spans recorded in this process. The parallel runner
        hands each worker task a unique prefix so merged span ids never
        collide.
    """
    global _enabled, _registry, _trace, _trace_kinds, _spans
    from repro.sim.trace import TraceRecorder

    _enabled = bool(enabled)
    _registry = MetricsRegistry(enabled=_enabled)
    _trace_kinds = trace_kinds
    _trace = TraceRecorder(
        enabled_kinds=None if trace_kinds is None else list(trace_kinds)
    )
    _spans = SpanRecorder(id_prefix=span_prefix, enabled=_enabled)
    _sim_stats.clear()


def reset() -> None:
    """Fresh registry/trace/spans/engine-stats keeping the current mode."""
    configure(enabled=_enabled, trace_kinds=_trace_kinds)


def track_simulator(stats: Any) -> None:
    """Register one simulator's stats object for later aggregation."""
    _sim_stats.append(stats)


def simulator_stats() -> List[Any]:
    """Stats of the (most recent) simulators created while observing."""
    return list(_sim_stats)


def aggregate_engine_stats(stats_list: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
    """Merge tracked simulators' profiles into one engine report.

    Aggregates every tracked simulator by default; pass ``stats_list`` to
    aggregate a slice (the runner uses this to attribute engine work to one
    in-process task). Returns a JSON-safe dict with total
    dispatched/cancelled event counts, the worst heap high-water mark, and
    per-callback-name dispatch counts, cumulative wall-clock seconds,
    owning components and sim-time bounds merged across simulators.
    """
    if stats_list is None:
        stats_list = list(_sim_stats)
    dispatched = 0
    cancelled = 0
    heap_high_watermark = 0
    counts: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    components: Dict[str, str] = {}
    sim_bounds: Dict[str, List[float]] = {}
    for stats in stats_list:
        dispatched += stats.dispatched
        cancelled += stats.cancelled
        heap_high_watermark = max(heap_high_watermark, stats.heap_high_watermark)
        for name, count in stats.callback_counts.items():
            counts[name] = counts.get(name, 0) + count
        for name, wall in stats.callback_wall_s.items():
            seconds[name] = seconds.get(name, 0.0) + wall
        for name, component in stats.callback_components.items():
            components.setdefault(name, component)
        for name, (first, last) in stats.callback_sim_bounds.items():
            bounds = sim_bounds.get(name)
            if bounds is None:
                sim_bounds[name] = [first, last]
            else:
                bounds[0] = min(bounds[0], first)
                bounds[1] = max(bounds[1], last)
    return {
        "type": "engine",
        "simulators": len(stats_list),
        "dispatched": dispatched,
        "cancelled": cancelled,
        "heap_high_watermark": heap_high_watermark,
        "callback_counts": counts,
        "callback_wall_s": seconds,
        "callback_components": components,
        "callback_sim_bounds": sim_bounds,
    }

