"""Task model: the unit of work the runner schedules, caches, and executes.

A :class:`TaskSpec` is one driver call — either a whole experiment
(``part="all"``) or one slice of a sweep decomposition
(:mod:`repro.experiments.sweeps`). Specs are plain picklable data so they
cross the ``ProcessPoolExecutor`` boundary; :func:`execute_task` is the
module-level worker entry point (bound methods and closures cannot be
submitted to a process pool).

Telemetry crosses the pool boundary in both directions. Outbound, the
parent attaches a :class:`SpanContext` — the root span id to graft under, a
per-task span-id prefix, and the observability mode, which is how
``--no-obs`` reaches workers (they re-import ``repro`` with default runtime
state, so the parent's escape hatch would otherwise be silently lost).
Inbound, :class:`TaskOutcome` carries the result plus the worker's finished
span records, metrics snapshot, and engine profile for the parent to merge.

Fault injection rides the same channel: the parent binds the
:class:`~repro.faults.plan.FaultDirective`\\ s a
:class:`~repro.faults.plan.FaultPlan` assigned to this task, and the worker
detonates them around the driver call (:mod:`repro.faults.inject`). A
retried attempt is handed a clean spec, so injected infrastructure faults
are one-shot by construction.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.registry import resolve_target
from repro.faults.inject import fire_worker_faults, sabotage_outcome
from repro.faults.plan import FaultDirective
from repro.obs import runtime as obs_runtime


@dataclass(frozen=True)
class SpanContext:
    """Observability context serialised into a pool worker.

    Attributes
    ----------
    root_id:
        Span id of the parent's ``runner.run_all`` root; the worker's task
        span grafts under it so merged records form one tree.
    prefix:
        Span-id prefix unique to this task (``"t03."``), guaranteeing
        worker-minted ids never collide with the parent's or each other's.
    obs_enabled:
        The parent's observability mode; ``False`` propagates ``--no-obs``.
    span_detail:
        Whether hot-path (per-transmission) span sites record in the worker.
    """

    root_id: Optional[str]
    prefix: str
    obs_enabled: bool = True
    span_detail: bool = False


@dataclass
class TaskOutcome:
    """Everything one executed task ships back to the parent."""

    result: Any
    wall_s: float
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    engine: Dict[str, Any] = field(default_factory=dict)
    #: Spans the worker's recorder discarded at its retention cap.
    spans_dropped: int = 0


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable driver call.

    Attributes
    ----------
    experiment_id:
        Canonical registry id this task contributes to.
    part:
        ``"all"`` for a monolithic run, else the sweep part name
        (``"threshold=1"``, ``"home=3"``...).
    target:
        ``"module:callable"`` driver reference.
    kwargs:
        Complete keyword arguments (the seed, when the driver takes one,
        is already baked in by the planner or sweep factory).
    seed:
        The run's seed, recorded for the manifest; ``None`` when the
        driver is pure-analytic and takes no seed.
    obs:
        Observability context, set only for tasks bound for a pool worker.
        ``None`` (the default, and always at ``--jobs 1``) executes the
        driver against the caller's ambient runtime state. Excluded from
        cache keys by construction — :func:`~repro.runner.cache.cache_key`
        consumes the identity fields explicitly.
    faults:
        Armed fault directives for *this attempt* (empty on the fault-free
        path and on every retry). Excluded from cache keys like ``obs``;
        infrastructure faults never change result bytes, only how (and how
        often) the result was obtained.
    attempt:
        1-based attempt number, labelled onto the worker's task span so a
        span tree distinguishes a retry from a first try.
    """

    experiment_id: str
    part: str
    target: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    obs: Optional[SpanContext] = None
    faults: Tuple[FaultDirective, ...] = ()
    attempt: int = 1

    @property
    def label(self) -> str:
        """The ``experiment:part`` label fault plans assign against."""
        return f"{self.experiment_id}:{self.part}"


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector around one driver call.

    The simulators allocate millions of short-lived, overwhelmingly acyclic
    objects (frames, events, transmission records); generation-0 collections
    spend several percent of a long run scanning them for cycles that cannot
    exist. Reference counting still frees everything promptly while the
    collector is off.

    On exit the collector is restored to its prior state and the *young*
    generation is collected once. Nothing is promoted while the collector is
    off, so every object the driver allocated is still in generation 0: a
    generation-0 pass reclaims each cycle the driver created (a testbed's
    simulator, components and callbacks) at a cost proportional to the
    driver's own allocations. A full collection would also walk the whole
    long-lived heap — imports, registries, caches — which takes longer than
    an analog driver call itself; the interpreter's own thresholds schedule
    those older generations as usual.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect(0)


def execute_task(spec: TaskSpec) -> TaskOutcome:
    """Run one task; returns a :class:`TaskOutcome`.

    Runs in a worker process for parallel plans and in the parent for
    ``--jobs 1``; both paths call the exact same driver with the exact same
    kwargs, which is what makes the two modes byte-identical. Only the
    telemetry handling differs:

    * ``spec.obs`` set (pool worker) — reconfigure this process's runtime
      to the parent's mode, open a ``runner.task`` span grafted under the
      parent's root, and snapshot spans/metrics/engine stats into the
      outcome for the parent to merge.
    * ``spec.obs`` unset (in-process) — run the driver plainly; the
      caller's ambient recorders already capture everything, so the
      outcome carries empty telemetry.

    Armed fault directives detonate here: pre-driver faults (raise, crash,
    hang) before the timed region, result sabotage after it. In-process
    execution degrades process-killing faults to raises — the orchestrator
    must survive its own chaos.
    """
    driver = resolve_target(spec.target)
    if spec.obs is None:
        fire_worker_faults(spec.faults, in_process=True)
        started = time.perf_counter()
        with _gc_paused():
            result = driver(**spec.kwargs)
        result = sabotage_outcome(spec.faults, result, in_process=True)
        return TaskOutcome(result=result, wall_s=time.perf_counter() - started)

    ctx = spec.obs
    obs_runtime.configure(
        enabled=ctx.obs_enabled,
        span_prefix=ctx.prefix,
        span_detail=ctx.span_detail,
    )
    spans = obs_runtime.get_spans()
    task_span = spans.begin(
        "runner.task",
        parent_id=ctx.root_id,
        experiment=spec.experiment_id,
        part=spec.part,
        attempt=spec.attempt,
    )
    started = time.perf_counter()
    try:
        fire_worker_faults(spec.faults, in_process=False)
        with _gc_paused():
            result = driver(**spec.kwargs)
    except BaseException:
        spans.end(task_span, status="error")
        raise
    wall_s = time.perf_counter() - started
    spans.end(task_span)
    result = sabotage_outcome(spec.faults, result, in_process=False)
    return TaskOutcome(
        result=result,
        wall_s=wall_s,
        spans=spans.to_records(),
        metrics=obs_runtime.get_registry().snapshot(),
        engine=obs_runtime.aggregate_engine_stats(),
        spans_dropped=spans.dropped,
    )
