"""Instrumentation-overhead guard: observability must stay near-free.

Runs one fig 6a UDP point (PoWiFi, 20 Mb/s, 4 s) in twenty back-to-back
pairs, once with observability enabled and once in ``--no-obs`` mode, and
bounds the median of the pairs' enabled-mode wall-clock overhead at 15 % of
the unobserved run. There is no absolute slack. The point runs for about
half a second, and a shared host slows single runs by a third at times. So
the guard compares each observed run with the unobserved run next to it,
which a slow spell affects alike, and takes the median over the pairs,
which a burst that hits a few runs cannot move.

The overhead is what observing adds per event: the engine's per-kind
profile (an exact dispatch count and sim-time bounds per kind, plus a
stride-sampled timer) and the hot-path components' tallies and ordered
buffers, which publish to the registry when ``Simulator.run`` returns
(``repro.obs.hotpath``). The ``--no-obs`` guard additionally asserts the
escape hatch is *clean*: a disabled run accumulates no attribution state
and buffers nothing.
"""

import gc
import statistics
from time import perf_counter

from conftest import write_report

from repro.core.config import Scheme
from repro.experiments.fig06_traffic import run_udp_for_scheme
from repro.obs import runtime as obs_runtime

#: Relative wall-clock budget for enabled-mode instrumentation.
MAX_OVERHEAD_FRACTION = 0.15

#: Simulated seconds of the timed fig 6a point.
RUN_SECONDS = 4

#: Observed/unobserved pairs the median is taken over.
PAIRS = 20


def _run_once(enabled: bool = True) -> float:
    obs_runtime.configure(enabled=enabled)
    gc.collect()  # start every timed run from the same heap state
    started = perf_counter()
    run_udp_for_scheme(
        Scheme.POWIFI, rates_mbps=(20,), copies=1, run_seconds=RUN_SECONDS
    )
    return perf_counter() - started


def _pair(observed_first: bool) -> tuple:
    if observed_first:
        observed = _run_once(True)
        return observed, _run_once(False)
    unobserved = _run_once(False)
    return _run_once(True), unobserved


def test_obs_overhead_under_budget():
    try:
        _run_once()  # warm imports and caches outside the timed runs
        # Which mode runs first alternates, so neither gains from going second.
        pairs = [_pair(i % 2 == 0) for i in range(PAIRS)]
    finally:
        obs_runtime.configure(enabled=True)
    fractions = sorted(on / off - 1.0 for on, off in pairs)
    fraction = statistics.median(fractions)
    write_report(
        "obs_overhead",
        [
            "Observability overhead — fig 6a UDP point "
            f"(PoWiFi, 20 Mb/s, {RUN_SECONDS} s)",
            f"observed   {min(on for on, _ in pairs):8.3f} s (best of {PAIRS})",
            f"unobserved {min(off for _, off in pairs):8.3f} s (best of {PAIRS})",
            f"overhead   {100 * fraction:8.1f} % (median of {PAIRS} pairs; "
            f"range {100 * fractions[0]:.1f} to {100 * fractions[-1]:.1f} %)",
            "",
            f"budget: {100 * MAX_OVERHEAD_FRACTION:.0f} % (median pair)",
        ],
    )
    assert fraction <= MAX_OVERHEAD_FRACTION, (
        f"instrumentation overhead {100 * fraction:.1f}% (median of "
        f"{PAIRS} pairs) exceeds budget"
    )


def test_no_obs_leaves_no_attribution_state(monkeypatch):
    """``--no-obs`` must be profiler-clean: zero tracked simulators, zero
    per-kind counters, zero attribution rows, and no hot-path component
    registering tallies (so nothing is buffered) — not merely 'cheap'."""
    from repro.obs.profile import rows_from_engine
    from repro.sim.engine import Simulator

    registered = []
    monkeypatch.setattr(
        Simulator, "add_tallies", lambda sim, tallies: registered.append(tallies)
    )
    try:
        _run_once(enabled=False)
        engine = obs_runtime.aggregate_engine_stats()
    finally:
        obs_runtime.configure(enabled=True)
    assert registered == []
    assert engine["simulators"] == 0
    assert engine["callback_counts"] == {}
    assert engine["callback_components"] == {}
    assert engine["callback_sim_bounds"] == {}
    assert rows_from_engine(engine) == []


def test_profiler_attribution_covers_dispatch_wall():
    """Attributed per-kind wall must explain the bulk of the measured run.

    The bound is deliberately loose (50 % of whole-driver wall, which
    includes setup and analysis outside the dispatch loop) so stride-
    sampling jitter cannot flake CI; the CLI prints the exact coverage
    line for the humans chasing the >= 95 %-of-dispatch target.
    """
    from repro.obs.profile import attributed_wall_s, rows_from_engine

    obs_runtime.configure(enabled=True)
    started = perf_counter()
    run_udp_for_scheme(Scheme.POWIFI, rates_mbps=(20,), copies=1, run_seconds=0.5)
    total_wall = perf_counter() - started
    rows = rows_from_engine(obs_runtime.aggregate_engine_stats())
    obs_runtime.configure(enabled=True)
    assert rows, "observed run must yield attribution rows"
    attributed = attributed_wall_s(rows)
    write_report(
        "obs_attribution_coverage",
        [
            "Profiler attribution coverage — fig 6a UDP point",
            f"measured   {total_wall:8.3f} s",
            f"attributed {attributed:8.3f} s "
            f"({100 * attributed / total_wall:.1f} % of driver wall)",
            f"kinds      {len(rows)}",
        ],
    )
    assert attributed >= 0.5 * total_wall, (
        f"attribution explains only {attributed:.3f}s of {total_wall:.3f}s"
    )
