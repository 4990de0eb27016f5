"""Sweep decompositions: split one experiment into independent part tasks.

The paper's heavier experiments are internally embarrassingly parallel —
Fig 5 sweeps four queue thresholds over a delay grid, Fig 6 runs four
schemes against the same workload, Fig 14 deploys six homes — and every
part builds its own testbed from the same master seed, so parts can run in
any order (or in different processes) without perturbing each other.

Each ``<id>_sweep`` factory here is referenced from the experiment's
:class:`~repro.experiments.registry.ExperimentSpec` and returns a
:class:`SweepPlan`: the part tasks plus a merge function whose output is
**byte-identical** (equal pickles) to a monolithic driver call with the
same arguments. That identity is what lets ``repro.runner`` fan parts out
across worker processes and still regenerate exactly the figures the
sequential CLI produces; ``tests/test_runner_run_all.py`` and
``benchmarks/test_runner_speedup.py`` pin it.

Merging relies on the drivers building their result dicts in the sweep's
canonical order (thresholds ascending, ``FIG6_SCHEMES`` order, home order),
so the merge functions insert part results in that same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import Scheme
from repro.experiments.base import FIG6_SCHEMES


@dataclass(frozen=True)
class SweepPart:
    """One independently runnable slice of an experiment.

    Attributes
    ----------
    name:
        Stable human-readable part label (``"threshold=1"``,
        ``"scheme=powifi"``, ``"home=3"``); part of the result cache key,
        so renaming a part invalidates its cached runs.
    target:
        ``"module:callable"`` driver reference for this part.
    kwargs:
        Complete keyword arguments for the part (the factory bakes the
        seed in; the runner calls ``target(**kwargs)`` verbatim).
    """

    name: str
    target: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPlan:
    """The part tasks of one experiment plus their merge function."""

    parts: Tuple[SweepPart, ...]
    #: Combines the part results (in :attr:`parts` order) into the same
    #: object a monolithic driver call would have returned.
    merge: Callable[[Sequence[Any]], Any]


def fig5_sweep(
    seed: int = 0,
    thresholds: Optional[Sequence[int]] = None,
    delays_us: Optional[Sequence[float]] = None,
    duration_s: float = 2.0,
) -> SweepPlan:
    """Fig 5 split by queue threshold (one delay-grid curve per part).

    ``thresholds`` and ``delays_us`` default to the driver's grids.
    """
    from repro.experiments.fig05_delay_sweep import (
        DEFAULT_DELAYS_US,
        DEFAULT_THRESHOLDS,
        DelaySweepResult,
    )

    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    delays_us = DEFAULT_DELAYS_US if delays_us is None else delays_us
    parts = tuple(
        SweepPart(
            name=f"threshold={threshold}",
            target="repro.experiments.fig05_delay_sweep:run_fig05",
            kwargs={
                "thresholds": (threshold,),
                "delays_us": tuple(delays_us),
                "duration_s": duration_s,
                "seed": seed,
            },
        )
        for threshold in thresholds
    )

    def merge(results: Sequence[DelaySweepResult]) -> DelaySweepResult:
        merged = DelaySweepResult()
        for partial in results:
            merged.curves.update(partial.curves)
        return merged

    return SweepPlan(parts=parts, merge=merge)


def _scheme_sweep(
    target: str,
    seed: int,
    schemes: Sequence[Scheme],
    **driver_kwargs: Any,
) -> SweepPlan:
    """Shared shape of the Fig 6 sweeps: one part per §4.1 scheme.

    ``driver_kwargs`` pass through to every part (reduced-scale runs in
    tests); the defaults match a monolithic driver call exactly.
    """
    parts = tuple(
        SweepPart(
            name=f"scheme={scheme.value}",
            target=target,
            kwargs={"schemes": (scheme,), "seed": seed, **driver_kwargs},
        )
        for scheme in schemes
    )

    def merge(results: Sequence[Dict[Scheme, Any]]) -> Dict[Scheme, Any]:
        merged: Dict[Scheme, Any] = {}
        for partial in results:
            merged.update(partial)
        return merged

    return SweepPlan(parts=parts, merge=merge)


def fig6a_sweep(
    seed: int = 0,
    schemes: Sequence[Scheme] = FIG6_SCHEMES,
    **driver_kwargs: Any,
) -> SweepPlan:
    """Fig 6a (UDP throughput) split by scheme."""
    return _scheme_sweep(
        "repro.experiments.fig06_traffic:run_fig06a", seed, schemes, **driver_kwargs
    )


def fig6b_sweep(
    seed: int = 0,
    schemes: Sequence[Scheme] = FIG6_SCHEMES,
    **driver_kwargs: Any,
) -> SweepPlan:
    """Fig 6b (TCP throughput CDFs) split by scheme."""
    return _scheme_sweep(
        "repro.experiments.fig06_traffic:run_fig06b", seed, schemes, **driver_kwargs
    )


def fig6c_sweep(
    seed: int = 0,
    schemes: Sequence[Scheme] = FIG6_SCHEMES,
    **driver_kwargs: Any,
) -> SweepPlan:
    """Fig 6c (page-load times) split by scheme."""
    return _scheme_sweep(
        "repro.experiments.fig06_traffic:run_fig06c", seed, schemes, **driver_kwargs
    )


def fig8_sweep(
    seed: int = 0,
    schemes: Optional[Sequence[Scheme]] = None,
    neighbor_rates: Optional[Sequence[float]] = None,
    duration_s: float = 2.0,
) -> SweepPlan:
    """Fig 8 (neighbour fairness) split by scheme.

    ``schemes`` and ``neighbor_rates`` default to the driver's.
    """
    from repro.experiments.fig08_fairness import (
        DEFAULT_NEIGHBOR_RATES,
        FIG8_SCHEMES,
        FairnessResult,
    )

    schemes = FIG8_SCHEMES if schemes is None else schemes
    neighbor_rates = DEFAULT_NEIGHBOR_RATES if neighbor_rates is None else neighbor_rates
    parts = tuple(
        SweepPart(
            name=f"scheme={scheme.value}",
            target="repro.experiments.fig08_fairness:run_fig08",
            kwargs={
                "schemes": (scheme,),
                "neighbor_rates": tuple(neighbor_rates),
                "duration_s": duration_s,
                "seed": seed,
            },
        )
        for scheme in schemes
    )

    def merge(results: Sequence[FairnessResult]) -> FairnessResult:
        throughput: Dict[Scheme, Dict[float, float]] = {}
        for partial in results:
            throughput.update(partial.throughput)
        return FairnessResult(throughput=throughput)

    return SweepPlan(parts=parts, merge=merge)


def fig14_sweep(
    seed: int = 0,
    duration_s: float = 24 * 3600.0,
    window_s: float = 60.0,
) -> SweepPlan:
    """Fig 14 (six-home study) split by home, via ``run_home``."""
    from repro.experiments.fig14_homes import HomeStudyResult
    from repro.workloads.homes import HOME_DEPLOYMENTS

    parts = tuple(
        SweepPart(
            name=f"home={profile.index}",
            target="repro.experiments.fig14_homes:run_home",
            kwargs={
                "profile": profile,
                "seed": seed,
                "duration_s": duration_s,
                "window_s": window_s,
            },
        )
        for profile in HOME_DEPLOYMENTS
    )

    def merge(results: Sequence[Any]) -> HomeStudyResult:
        return HomeStudyResult(homes=list(results))

    return SweepPlan(parts=parts, merge=merge)


def sec8c_sweep(
    seed: int = 0,
    router_counts: Sequence[int] = (1, 2, 3),
    duration_s: float = 1.0,
) -> SweepPlan:
    """§8(c) (concurrent routers) split by router count."""
    from repro.experiments.sec8c_multi_router import MultiRouterStudy

    parts = tuple(
        SweepPart(
            name=f"routers={count}",
            target="repro.experiments.sec8c_multi_router:run_sec8c",
            kwargs={
                "router_counts": (count,),
                "duration_s": duration_s,
                "seed": seed,
            },
        )
        for count in router_counts
    )

    def merge(results: Sequence[MultiRouterStudy]) -> MultiRouterStudy:
        by_count: Dict[int, Any] = {}
        for partial in results:
            by_count.update(partial.by_count)
        return MultiRouterStudy(by_count=by_count)

    return SweepPlan(parts=parts, merge=merge)
