"""Per-operation microbenchmarks of the layers' public hot-path calls.

Each reports nanoseconds per call, the median of :data:`REPEATS` timed
batches, loop overhead included. They cover the ledger's first item: engine
dispatch and periodic re-arm, the device queue, the IP_Power gate,
the metrics and span instruments, and one harvester-chain evaluation.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, Tuple

#: Timed batches per microbenchmark; the median is reported.
REPEATS = 5


def _median_ns(batch: Callable[[], Tuple[int, float]]) -> float:
    """Median ns per operation over ``REPEATS`` runs of ``batch``.

    ``batch`` returns how many operations it timed and their seconds.
    """
    samples = []
    for _ in range(REPEATS):
        count, seconds = batch()
        samples.append(seconds * 1e9 / count)
    return statistics.median(samples)


def _clocked(batch: Callable[[], int]) -> Callable[[], Tuple[int, float]]:
    """Time the whole of ``batch``, which returns its operation count."""

    def timed() -> Tuple[int, float]:
        started = perf_counter()
        count = batch()
        return count, perf_counter() - started

    return timed


def _null(*_args) -> None:
    return None


def run_micro(scale: int = 20_000) -> Dict[str, float]:
    """Every microbenchmark, keyed by its per-layer metric name."""
    from repro.core.ip_power import IpPowerGate
    from repro.harvester.harvester import battery_free_harvester
    from repro.mac80211.station import Station
    from repro.netstack.txqueue import DeviceQueue
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    def schedule_dispatch() -> int:
        sim = Simulator()
        for _ in range(scale):
            sim.schedule(1e-6, _null)
        sim.run()
        return scale

    def periodic_rearm() -> int:
        sim = Simulator()
        sim.schedule_periodic(1e-3, _null)
        sim.run(until=scale * 1e-3 - 5e-4)
        return scale

    frames = [object() for _ in range(scale)]

    def queue_push() -> int:
        queue = DeviceQueue(capacity=scale)
        push = queue.push
        for frame in frames:
            push(frame)
        return scale

    def queue_pop() -> Tuple[int, float]:
        queue = DeviceQueue(capacity=scale)
        for frame in frames:
            queue.push(frame)
        pop = queue.pop
        started = perf_counter()
        for _ in range(scale):
            pop()
        return scale, perf_counter() - started

    station = Station(Simulator(), "micro", RandomStreams(0))
    gate = IpPowerGate(station, queue_threshold=4)

    def gate_admit() -> int:
        admit = gate.admit
        for _ in range(scale):
            admit()
        return scale

    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("micro.counter")
    histogram = registry.histogram("micro.histogram")

    def counter_inc() -> int:
        inc = counter.inc
        for _ in range(scale):
            inc()
        return scale

    def histogram_observe() -> int:
        observe = histogram.observe
        for index in range(scale):
            observe(index & 63)
        return scale

    def span_begin_end() -> int:
        spans = SpanRecorder(max_spans=scale)
        begin, end = spans.begin, spans.end
        for _ in range(scale):
            end(begin("micro.span.op"))
        return scale

    harvester = battery_free_harvester()
    powers = [-20.0 + (index % 200) * 0.1 for index in range(scale // 10)]

    def harvester_point() -> int:
        point = harvester.operating_point
        for power in powers:
            point(power)
        return len(powers)

    return {
        "micro.sim_schedule_dispatch_ns": _median_ns(_clocked(schedule_dispatch)),
        "micro.sim_periodic_rearm_ns": _median_ns(_clocked(periodic_rearm)),
        "micro.txqueue_push_ns": _median_ns(_clocked(queue_push)),
        "micro.txqueue_pop_ns": _median_ns(queue_pop),
        "micro.ip_power_admit_ns": _median_ns(_clocked(gate_admit)),
        "micro.counter_inc_ns": _median_ns(_clocked(counter_inc)),
        "micro.histogram_observe_ns": _median_ns(_clocked(histogram_observe)),
        "micro.span_begin_end_ns": _median_ns(_clocked(span_begin_end)),
        "micro.harvester_operating_point_ns": _median_ns(_clocked(harvester_point)),
    }
