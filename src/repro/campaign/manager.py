"""The campaign manager: run a journaled grid to completion, survivably.

:func:`dispatch` is the one scheduler behind both entry points that
produce numbers: :func:`run_campaign` below and
:func:`repro.runner.core.run_all`. It owns the interrupt guard, the
ready-time queue, submission bounded to one running and one queued task
per worker, the deadline watchdog (a queued task's deadline starts when a
worker frees up for it), seeded-backoff retries, the pool rebuild and every
per-unit journal record (lease, heartbeat, retry, done, quarantined) and
every result cache write. :func:`probe`, shared by the same two callers,
opens the journal generation, fires the cache faults and replays cache
hits. Both hand each result, cached or executed, to the caller's one
``finish`` callback; the :class:`Dispatch` units are the per-unit record
the callers read afterwards (attempts, failure, cache hit, wall, engine).

:func:`run_campaign` drives it over a campaign grid:

1. **Expand** the spec into content-addressed points and **fold** the
   journal — points already done (or quarantined) in a previous generation
   are honoured, not re-dispatched.
2. **Probe** the result cache: any point whose key is stored replays
   without execution (``run_missing`` semantics — after a ``kill -9`` the
   only re-executed work is what never finished an append).
3. **Dispatch** the rest under *leases*: every attempt journals
   ``point.lease`` before it runs, the manager journals
   ``point.heartbeat`` for in-flight leases on a fixed cadence, and the
   watchdog reclaims leases that outlive ``task_timeout_s`` (or that the
   ``campaign.lease.expire`` fault expired at grant time).
4. **Retry** failures with deterministic :mod:`repro.runner.backoff`
   delays; a point that exhausts its attempts is **quarantined** — the
   campaign completes and reports it instead of wedging.
5. **Write the manifest**: a pure function of (spec, seeds, results) —
   no wall clocks, attempt counts or cache-hit flags — so an interrupted
   + resumed campaign's manifest is byte-identical to an uninterrupted
   equal-seed run's. Execution telemetry lives in the journal and the
   metrics registry, where it belongs.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.campaign.journal import (
    CORRUPT_FAULT_POINT,
    JOURNAL_FILENAME,
    CampaignJournal,
    JournalState,
    load_journal,
    quarantine_journal,
)
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.faults import runtime as faults_runtime
from repro.faults.plan import FaultDirective, FaultPlan, WORKER_FAULT_POINTS
from repro.obs import runtime as obs_runtime
from repro.obs import slo as slo_mod
from repro.runner.backoff import backoff_s
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_fingerprint,
    result_sha256,
)
from repro.runner.tasks import SpanContext, TaskSpec, execute_task

#: Progress callback type: receives one formatted line per event.
ProgressFn = Callable[[str], None]

#: Bump on any breaking change to the campaign manifest layout.
MANIFEST_SCHEMA_VERSION = 1

#: Default campaign manifest filename.
MANIFEST_FILENAME = "campaign_manifest.json"

#: Default seconds between heartbeat appends for in-flight leases.
DEFAULT_HEARTBEAT_S = 2.0

#: How often the dispatch loop wakes to run the watchdog when nothing
#: completes (seconds). Completions interrupt the wait immediately.
_POLL_INTERVAL_S = 0.25

#: Deadline of a lease born expired: the next watchdog pass reclaims it.
_EXPIRED = float("-inf")


class _InterruptGuard:
    """Flag-based SIGINT/SIGTERM handling for graceful degradation.

    The first signal sets :attr:`triggered`; the run loop notices, stops
    submitting, and unwinds to flush a partial manifest. A second signal
    raises ``KeyboardInterrupt`` so an operator can still abort hard.
    Installation is skipped silently off the main thread (``signal.signal``
    refuses there), which keeps the loop usable from test harnesses and
    embedding code.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.triggered = False
        self._previous: Dict[int, Any] = {}
        self._pid = os.getpid()

    def _handle(self, signum: int, frame: Any) -> None:
        if os.getpid() != self._pid:
            # A forked pool worker inherited this handler; restore the
            # default disposition and re-deliver so the worker dies
            # silently instead of spraying a KeyboardInterrupt traceback
            # when the parent terminates its pool.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        if self.triggered:
            raise KeyboardInterrupt
        self.triggered = True

    def __enter__(self) -> "_InterruptGuard":
        for signum in self._SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:
                pass


@dataclass(eq=False)
class Dispatch:
    """One schedulable unit's record: a run-all part or a campaign point."""

    #: The driver call; faults, attempt and telemetry are set per attempt.
    task: TaskSpec
    #: Content-addressed cache key.
    key: str
    #: Part name on the watch board (seed-qualified for campaign points).
    part_label: str
    #: One-shot directives: the first attempt carries them, retries run clean.
    faults: Tuple[FaultDirective, ...] = ()
    #: Directives that re-arm on every attempt (a poisoned point).
    sticky_faults: Tuple[FaultDirective, ...] = ()
    #: One-shot: the next attempt's deadline is born expired.
    expire_lease: bool = False
    #: One-shot: the next lease append is torn like a kill -9 mid-write.
    tear_journal: bool = False
    #: The current attempt's lease id.
    lease: str = ""
    attempts: int = 0
    #: Whether any attempt tripped the watchdog.
    timed_out: bool = False
    #: Final failure (``error`` / ``timeout`` / ``lease_expired`` /
    #: ``pool_broken`` / ``interrupted``); ``None`` unless the unit failed.
    failure_kind: Optional[str] = None
    error: Optional[str] = None
    #: Served from the result cache without executing.
    cached: bool = False
    #: The successful attempt's driver wall clock (0.0 unless executed).
    wall_s: float = 0.0
    #: The successful attempt's engine profile: worker-local aggregate for
    #: pool tasks, tracked-simulator delta in-process, ``{}`` unless executed.
    engine: Dict[str, Any] = field(default_factory=dict)
    #: ``perf_counter`` timestamp before which a retry must not re-submit
    #: (seeded backoff; 0.0 = immediately eligible).
    ready_at: float = 0.0

    @property
    def label(self) -> str:
        """``experiment:part_label``, which fault plans, backoff draws,
        progress lines and journal ``point`` fields use."""
        return f"{self.task.experiment_id}:{self.part_label}"


#: Extra fields a caller adds to a unit's ``point.done`` record.
DoneFields = Optional[Dict[str, Any]]

#: A caller's hook for one unit's result, cached or executed; the unit's
#: ``cached``, ``wall_s``, ``engine`` and ``attempts`` are already set.
#: Returns extra ``point.done`` fields.
FinishFn = Callable[[Dispatch, Any], DoneFields]


def worker_count(jobs: Optional[int], pending: int) -> int:
    """Workers for ``pending`` units: ``jobs`` (default: CPUs), at most one per unit."""
    requested = jobs if jobs is not None else (os.cpu_count() or 1)
    return max(1, min(requested, max(pending, 1)))


def slo_specs_by_experiment(
    experiment_ids: List[str], slo_specs: Optional[List[Any]], emit: ProgressFn
) -> Tuple[List[Any], Dict[str, List[Any]]]:
    """``slo_specs`` (``None``: each experiment's registry default), grouped.

    A malformed default spec is reported as a progress line and skipped:
    SLOs observe a run, they never fail it.
    """
    if slo_specs is None:
        try:
            slo_specs = slo_mod.load_default_specs(experiment_ids)
        except Exception as exc:
            emit(f"[slo] skipping default specs: {exc}")
            slo_specs = []
    grouped: Dict[str, List[Any]] = {}
    for slo_spec in slo_specs:
        grouped.setdefault(slo_spec.experiment, []).append(slo_spec)
    return list(slo_specs), grouped


def bind_faults(
    fault_plan: Optional[FaultPlan], units: List[Dispatch]
) -> Dict[str, Tuple[FaultDirective, ...]]:
    """``fault_plan``'s directives per unit label (``{}`` without a plan).

    Raises :class:`~repro.errors.ConfigurationError` for a plan that cannot
    fire, so a caller binds before it writes or moves anything.
    """
    if fault_plan is None:
        return {}
    return fault_plan.assign([unit.label for unit in units])


def probe(
    units: List[Dispatch],
    journal: CampaignJournal,
    *,
    cache: Optional[ResultCache],
    assignment: Dict[str, Tuple[FaultDirective, ...]],
    emit: ProgressFn,
    finish: FinishFn,
    prior: Optional[JournalState] = None,
    **header: Any,
) -> Tuple[List[Dispatch], List[Dict[str, Any]]]:
    """Open a journal generation; return the units left to run and fault events.

    Appends ``campaign.open`` (``header``, the unit roster ``units`` —
    ``[cache key, label]`` pairs — and the fault events of ``assignment``,
    from :func:`bind_faults`), then probes each
    unit. A bound ``cache.corrupt`` damages its entry first. A unit the
    ``prior`` journal quarantined is left out. Any other bound fault forces
    execution (a directive that never fires tests nothing: worker faults
    fire in ``execute_task``, lease-scoped ones only on a granted lease) and
    is set on the unit. A cache hit is marked ``cached``, goes to
    ``finish(unit, value)`` and is journaled ``point.done cached=True`` with
    the fields ``finish`` returns, unless the prior journal already
    finished it.
    """
    prior = prior if prior is not None else JournalState()
    registry = obs_runtime.get_registry()
    hits = registry.counter("runner.cache.hits")
    misses = registry.counter("runner.cache.misses")
    fault_events = [
        {"point": directive.point, "task": label, "param": directive.param}
        for label in sorted(assignment)
        for directive in assignment[label]
    ]
    journal.append(
        "campaign.open",
        **header,
        units=[[unit.key, unit.label] for unit in units],
        faults=list(fault_events),
    )
    drained = len(cache.quarantine_events) if cache is not None else 0
    pending: List[Dispatch] = []
    for unit in units:
        directives = assignment.get(unit.label, ())
        points = {directive.point for directive in directives}
        if cache is not None and "cache.corrupt" in points:
            fired = cache.corrupt_entry(unit.key)
            fault_events.append(
                {"point": "cache.corrupt", "task": unit.label, "fired": fired}
            )
        if unit.key in prior.quarantined:
            continue
        if cache is not None and not points - {"cache.corrupt"}:
            found, value = cache.get(unit.key)
            for key in cache.quarantine_events[drained:]:
                emit(
                    f"[cache] quarantined corrupt entry {key[:12]} "
                    f"({unit.label}); re-executing"
                )
            drained = len(cache.quarantine_events)
            if found:
                hits.inc()
                unit.cached = True
                fields = finish(unit, value) or {}
                if unit.key not in prior.done:
                    # A replayed unit already has its terminal record; a
                    # second one would only fold as a stale duplicate.
                    journal.append(
                        "point.done",
                        point=unit.label,
                        key=unit.key,
                        cached=True,
                        wall_s=0.0,
                        attempt=0,
                        **fields,
                    )
                continue
        misses.inc()
        unit.faults = tuple(d for d in directives if d.point in WORKER_FAULT_POINTS)
        if "campaign.point.poison" in points:
            unit.sticky_faults = (FaultDirective(point="campaign.point.poison"),)
        unit.expire_lease = "campaign.lease.expire" in points
        unit.tear_journal = CORRUPT_FAULT_POINT in points
        pending.append(unit)
    return pending, fault_events


def _run_inline(spec: TaskSpec, root_id: Optional[str]) -> Future:
    """``jobs=1``'s synchronous submit: run one attempt here, return it done.

    The ambient recorders capture the driver directly, so the task span
    lives on this process's recorder and engine work is attributed by
    diffing the tracked-simulator list. The outcome is round-tripped through
    pickle like a pool worker's: the result hash is over pickle bytes, and a
    part that shares objects with another part (fig 6c's scheme parts share
    site-name strings) must hash as the pool's independently unpickled
    copy does.
    """
    spans = obs_runtime.get_spans()
    sims_before = len(obs_runtime.simulator_stats())
    task_span = spans.begin(
        "runner.task",
        parent_id=root_id,
        experiment=spec.experiment_id,
        part=spec.part,
        attempt=spec.attempt,
    )
    future: Future = Future()
    try:
        outcome = pickle.loads(
            pickle.dumps(execute_task(spec), protocol=pickle.HIGHEST_PROTOCOL)
        )
    except Exception as exc:
        spans.end(task_span, status="error")
        future.set_exception(exc)
        return future
    spans.end(task_span)
    outcome.engine = obs_runtime.aggregate_engine_stats(
        obs_runtime.simulator_stats()[sims_before:]
    )
    future.set_result(outcome)
    return future


def _shutdown_pool(pool: Any, terminate: bool) -> None:
    """Shut a pool down without waiting; optionally kill its workers."""
    # Snapshot the worker processes BEFORE shutdown: the executor nulls out
    # ``_processes`` as part of shutdown, and an unterminated hung worker
    # would block interpreter exit (atexit joins the management thread).
    stale = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    if terminate:
        for proc in stale:
            # Private attr, hence best-effort: without it a hung worker
            # lingers until process exit, which is survivable.
            try:
                proc.terminate()
            except Exception:
                pass


def _pop_ready(queue: Deque[Dispatch]) -> Optional[Dispatch]:
    """FIFO among eligible units; a backing-off retry parks in place."""
    now = time.perf_counter()
    for index, state in enumerate(queue):
        if state.ready_at <= now:
            del queue[index]
            return state
    return None


def dispatch(
    states: List[Dispatch],
    finish: FinishFn,
    *,
    noun: str,
    cache: Optional[ResultCache],
    jobs: int,
    seed: int,
    retries: int,
    task_timeout_s: Optional[float],
    root_span: Any,
    emit: ProgressFn,
    journal: CampaignJournal,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> bool:
    """Run ``states`` to completion on ``jobs`` workers, journaling each step.

    Returns whether SIGINT/SIGTERM cut the run short; unfinished units are
    then marked ``interrupted``. ``jobs=1`` runs each attempt in this
    process at submit time (:func:`_run_inline`) and is otherwise the same
    loop: a single thread cannot preempt its own driver call, so the
    ``task_timeout_s`` watchdog only acts on pool workers.

    Pool tasks ship a :class:`SpanContext`, so a worker mirrors this
    process's observability mode and mints span ids under a per-task
    prefix. Up to two tasks per worker are in flight, one running and one
    queued, so a freed worker starts its next task without waiting for
    this loop. A queued task's watchdog deadline starts when a running task
    finishes and frees a worker for it, oldest first (the executor's
    order), so it never times out before it runs; a lease born expired
    stays expired from submit.
    A pool task that fails gets a synthesized error-status ``runner.task``
    span: the worker's own spans died with it.

    Every charged attempt appends ``point.lease`` before it runs, with
    ``running`` set when a free worker starts its deadline at once; every
    ``heartbeat_s`` the loop appends ``point.heartbeat`` for each unit in
    flight, with ``running`` set once its deadline has started. A requeued
    attempt appends ``point.retry``. A result is stored in ``cache``, handed
    to ``finish`` and appended as ``point.done`` (plus the fields ``finish``
    returns), in that order. A spent attempt budget sets the unit's
    ``failure_kind``/``error``, appends ``point.quarantined`` and emits one
    ``[quarantine]`` line. ``noun`` (``task`` or ``point``) names the unit
    in progress lines.
    """
    registry = obs_runtime.get_registry()
    spans = obs_runtime.get_spans()
    root_id = root_span.span_id if spans.enabled else None
    max_attempts = retries + 1
    queue: Deque[Dispatch] = deque(states)
    in_flight: Dict[Future, Dispatch] = {}
    # future -> start time; None while queued, _EXPIRED if born expired
    deadlines: Dict[Future, Optional[float]] = {}
    waiting: Deque[Future] = deque()  # submitted, not yet given a worker
    capacity = 1 if jobs == 1 else 2 * jobs
    pool: Optional[Any] = None
    submitted = 0
    completed = 0
    last_heartbeat = time.perf_counter()

    def _journal(event_type: str, state: Dispatch, **fields: Any) -> None:
        journal.append(event_type, point=state.label, key=state.key, **fields)

    def _pool() -> Any:
        nonlocal pool
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=jobs)
        return pool

    def _rebuild(requeued: int) -> None:
        nonlocal pool
        registry.counter("runner.pool.rebuilds").inc()
        emit(
            f"[pool] rebuilding worker pool ({requeued} {noun}(s) requeued)"
        )
        _shutdown_pool(pool, terminate=True)
        pool = None

    def _submit(state: Dispatch) -> None:
        nonlocal submitted
        submitted += 1
        state.attempts += 1
        if state.tear_journal:
            faults_runtime.arm(CORRUPT_FAULT_POINT)
            state.tear_journal = False
        state.lease = f"l{journal.seq + 1}"
        # Submission order is promotion order, so this attempt runs at once
        # exactly when fewer units than workers are in flight ahead of it.
        _journal(
            "point.lease",
            state,
            lease=state.lease,
            attempt=state.attempts,
            running=len(in_flight) < jobs,
        )
        spec = replace(
            state.task,
            faults=state.faults + state.sticky_faults,
            attempt=state.attempts,
        )
        if jobs == 1:
            future = _run_inline(spec, root_id)
        else:
            spec = replace(
                spec,
                obs=SpanContext(
                    root_id=root_id,
                    prefix=f"t{submitted:02d}.",
                    obs_enabled=obs_runtime.enabled(),
                ),
            )
            try:
                future = _pool().submit(execute_task, spec)
            except BrokenProcessPool:
                _rebuild(requeued=0)
                future = _pool().submit(execute_task, spec)
        in_flight[future] = state
        deadlines[future] = _EXPIRED if state.expire_lease else None
        waiting.append(future)
        state.expire_lease = False

    def _promote() -> None:
        """Start the deadlines of queued tasks that a free worker now runs."""
        now = time.perf_counter()
        while waiting and len(in_flight) - len(waiting) < jobs:
            future = waiting.popleft()
            if deadlines[future] is None:
                deadlines[future] = now

    def _release(future: Future) -> Tuple[Dispatch, Optional[float]]:
        """Forget a finished or reclaimed future: its state and deadline."""
        if future in waiting:
            waiting.remove(future)
        return in_flight.pop(future), deadlines.pop(future)

    def _fail(state: Dispatch, kind: str, message: str) -> None:
        """Route one failed attempt: requeue it after backoff, or give up."""
        if jobs > 1:
            synth = spans.begin(
                "runner.task",
                parent_id=root_id,
                experiment=state.task.experiment_id,
                part=state.task.part,
                attempt=state.attempts,
                synthesized=True,
            )
            spans.end(synth, status="error", failure=kind)
        experiment = state.task.experiment_id
        if state.attempts < max_attempts:
            delay_s = backoff_s(seed, state.label, state.attempts)
            state.ready_at = time.perf_counter() + delay_s
            state.faults = ()
            _journal(
                "point.retry",
                state,
                attempt=state.attempts,
                kind=kind,
                error=message,
                backoff_s=round(delay_s, 4),
            )
            registry.counter("runner.parts.retried", experiment=experiment).inc()
            registry.histogram(
                "runner.retry.backoff_s", experiment=experiment
            ).observe(delay_s)
            emit(
                f"[retry] {state.label} attempt {state.attempts}/{max_attempts} "
                f"failed ({kind}: {message}); requeueing in {delay_s:.3f}s"
            )
            queue.append(state)
            return
        state.failure_kind = kind
        state.error = message
        registry.counter("runner.parts.failed", experiment=experiment).inc()
        _journal(
            "point.quarantined",
            state,
            attempts=state.attempts,
            error=f"{kind}: {message}",
        )
        emit(
            f"[quarantine] {state.label} after {state.attempts} attempt(s): "
            f"{kind}: {message}"
        )

    def _heartbeat() -> None:
        """Journal liveness for every unit in flight, on a fixed cadence."""
        nonlocal last_heartbeat
        now = time.perf_counter()
        if now - last_heartbeat < heartbeat_s:
            return
        last_heartbeat = now
        for future, state in in_flight.items():
            _journal(
                "point.heartbeat",
                state,
                lease=state.lease,
                attempt=state.attempts,
                running=deadlines[future] is not None,
            )

    with _InterruptGuard() as guard:
        try:
            while (queue or in_flight) and not guard.triggered:
                while queue and len(in_flight) < capacity and not guard.triggered:
                    state = _pop_ready(queue)
                    if state is None:
                        break
                    _submit(state)
                _promote()
                if not in_flight:
                    # Everything pending is backing off; wait() would
                    # return instantly on an empty set and spin.
                    ready_in = min(s.ready_at for s in queue) - time.perf_counter()
                    time.sleep(min(_POLL_INTERVAL_S, max(ready_in, 0.0)))
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=_POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    state, deadline = _release(future)
                    if deadline == _EXPIRED:
                        # The lease was reclaimed before the result landed:
                        # the attempt is charged and retried even though it
                        # finished — a zombie lease-holder racing its
                        # watchdog.
                        _fail(state, "lease_expired", "injected lease expiry")
                        continue
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        _fail(
                            state,
                            "pool_broken",
                            f"worker process died mid-{noun} "
                            f"({type(exc).__name__})",
                        )
                    except Exception as exc:
                        _fail(state, "error", f"{type(exc).__name__}: {exc}")
                    else:
                        completed += 1
                        spans.adopt(outcome.spans)
                        # A worker's retention-cap losses are this run's.
                        spans.dropped += outcome.spans_dropped
                        state.wall_s = outcome.wall_s
                        state.engine = outcome.engine
                        registry.histogram(
                            "runner.part.wall_s",
                            experiment=state.task.experiment_id,
                        ).observe(outcome.wall_s)
                        registry.counter("runner.parts.executed").inc()
                        if cache is not None:
                            cache.put(state.key, outcome.result)
                        fields = finish(state, outcome.result) or {}
                        _journal(
                            "point.done",
                            state,
                            cached=False,
                            wall_s=round(outcome.wall_s, 4),
                            attempt=state.attempts,
                            **fields,
                        )
                        emit(
                            f"[{noun} {completed}/{len(states)}] "
                            f"{state.label} {outcome.wall_s:.2f}s"
                            + (
                                f" (attempt {state.attempts})"
                                if state.attempts > 1
                                else ""
                            )
                        )
                _promote()
                _heartbeat()
                now = time.perf_counter()
                overdue = [
                    future
                    for future, started_at in deadlines.items()
                    if started_at == _EXPIRED
                    or (
                        started_at is not None
                        and task_timeout_s is not None
                        and now - started_at > task_timeout_s
                    )
                ]
                if broken or overdue:
                    # The pool is unusable (broken) or harbouring a hung
                    # worker (overdue): charge the culprits, requeue the
                    # innocents uncharged, and start a fresh pool.
                    for future in overdue:
                        state, deadline = _release(future)
                        if deadline == _EXPIRED:
                            kind, message = "lease_expired", "injected lease expiry"
                        else:
                            kind = "timeout"
                            message = f"exceeded task timeout {task_timeout_s:.1f}s"
                            state.timed_out = True
                        emit(
                            f"[watchdog] {state.label} ({kind}); reclaiming "
                            f"lease {state.lease} and terminating its pool"
                        )
                        _fail(state, kind, message)
                    for state in in_flight.values():
                        if broken:
                            # A broken pool reports the same exception for
                            # every in-flight future; charge them all
                            # rather than guess the culprit.
                            _fail(
                                state,
                                "pool_broken",
                                f"worker pool broke while {noun} "
                                "was in flight",
                            )
                        else:
                            # Innocent victim of a watchdog rebuild: the
                            # attempt never ran to completion through no
                            # fault of its own, so it is not charged.
                            state.attempts -= 1
                            queue.append(state)
                    requeued = len(in_flight)
                    in_flight.clear()
                    deadlines.clear()
                    waiting.clear()
                    _rebuild(requeued)
        finally:
            if pool is not None:
                _shutdown_pool(pool, terminate=guard.triggered)
        interrupted = guard.triggered

    if interrupted:
        for state in set(queue) | set(in_flight.values()):
            state.failure_kind = "interrupted"
            state.error = "interrupted before completion"
    return interrupted


@dataclass
class PointOutcome:
    """What one campaign point came to, and how."""

    point: CampaignPoint
    #: ``ok`` or ``quarantined``.
    status: str = "ok"
    #: Served from the result cache without executing this generation.
    cached: bool = False
    #: Finished (done/quarantined) by a *previous* generation's journal.
    replayed: bool = False
    result_sha256: str = ""
    wall_s: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    domain: Dict[str, Any] = field(default_factory=dict)
    slo_rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CampaignResult:
    """Everything one ``campaign run`` invocation produced."""

    spec: CampaignSpec
    seed: int
    code_fingerprint: str
    outcomes: List[PointOutcome]
    journal_path: str
    manifest: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    interrupted: bool = False
    generations: int = 1
    #: Journal records the recovery fold dropped (duplicates/stale).
    journal_dropped: int = 0
    #: Where a corrupt prior journal was moved, if recovery quarantined one.
    journal_quarantined: Optional[str] = None
    fault_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def executed(self) -> int:
        return sum(
            1 for o in self.outcomes if not o.cached and not o.replayed
        )

    @property
    def quarantined(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def ok(self) -> bool:
        """Campaign completed (quarantined points degrade, not fail)."""
        return not self.interrupted


def build_manifest(
    spec: CampaignSpec,
    fingerprint: str,
    outcomes: List[PointOutcome],
) -> Dict[str, Any]:
    """The campaign manifest: a pure function of spec + results.

    Deliberately free of wall clocks, timestamps, attempt counts and
    cache-hit flags — anything that differs between an uninterrupted run
    and a killed-and-resumed one. That is the byte-identity invariant the
    chaos-campaign CI job pins.
    """
    points = []
    for outcome in outcomes:
        point = outcome.point
        points.append(
            {
                "point": point.point_id,
                "experiment": point.experiment,
                "part": point.part,
                "axes": point.axes,
                "seed": point.seed,
                "key": point.key,
                "status": outcome.status,
                "result_sha256": outcome.result_sha256,
                "error": outcome.error,
                "domain": outcome.domain,
                "slo": outcome.slo_rows,
            }
        )
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "campaign": spec.name,
        "spec_digest": spec.digest(),
        "code_fingerprint": fingerprint,
        "seeds": list(spec.seeds),
        "points": points,
        "totals": {
            "points": len(points),
            "ok": sum(1 for p in points if p["status"] == "ok"),
            "quarantined": sum(
                1 for p in points if p["status"] == "quarantined"
            ),
        },
    }


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> Path:
    """Atomically write the campaign manifest (sorted keys, stable bytes).

    The JSON is compact, not indented: ``indent`` forces the pure-Python
    encoder, several times slower than the C one on a large sweep. Read it
    with ``campaign results`` or ``python -m json.tool``.

    An armed ``manifest.interrupt`` fault fires between the temp-file write
    and the rename, leaving any previous manifest intact.
    """
    from repro.obs.ioutil import write_atomic

    payload = json.dumps(manifest, sort_keys=True) + "\n"
    return write_atomic(path, payload, fault_point="manifest.interrupt")


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = None,
    seed: int = 0,
    use_cache: bool = True,
    cache_dir: str = DEFAULT_CACHE_DIR,
    retries: int = 1,
    task_timeout_s: Optional[float] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    fault_plan: Optional[FaultPlan] = None,
    journal_path: Optional[Union[str, Path]] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> CampaignResult:
    """Run (or resume) one campaign to completion.

    ``resume=True`` (the default, and what ``--resume`` spells) folds an
    existing journal first: points it proves done or quarantined are
    honoured, everything else re-dispatches, and cache hits make the
    re-dispatch free. ``resume=False`` moves any existing journal aside
    (quarantine convention) and starts generation 1 fresh — the cache is
    still consulted unless ``use_cache=False``.

    The campaign *completes* even when points fail every attempt: those
    are quarantined and reported, never fatal. Only an operator signal
    (SIGINT/SIGTERM, journaled as ``campaign.interrupted`` — and trivially
    SIGKILL) leaves the campaign unfinished, and a later ``--resume`` picks
    up where the journal stops.
    """
    started = time.perf_counter()
    emit = progress or (lambda line: None)
    spans = obs_runtime.get_spans()
    retries = max(0, int(retries))

    fingerprint = code_fingerprint()
    points = spec.expand(fingerprint)
    journal_path = Path(journal_path) if journal_path else Path(JOURNAL_FILENAME)
    units = [
        Dispatch(
            task=TaskSpec(
                experiment_id=point.experiment,
                part=point.part,
                target=point.target,
                kwargs=dict(point.kwargs),
                seed=point.seed,
            ),
            key=point.key,
            part_label=point.part_label,
        )
        for point in points
    ]
    # Fault directives bind to point labels (seed-qualified, so a count=1
    # spec poisons exactly one replicate); a plan that cannot fire is
    # refused here, before a --fresh run moves the previous journal.
    assignment = bind_faults(fault_plan, units)

    prior = JournalState(path=str(journal_path))
    journal_quarantined: Optional[str] = None
    if resume:
        prior = load_journal(journal_path)
        journal_quarantined = prior.quarantined_path
        if journal_quarantined:
            emit(
                f"[journal] corrupt journal quarantined to "
                f"{journal_quarantined}; recovering from cache"
            )
        elif prior.records:
            emit(
                f"[journal] resuming generation {prior.generations + 1}: "
                f"{len(prior.done)} done, {len(prior.quarantined)} "
                f"quarantined, {prior.dropped} dropped record(s)"
                + (", torn tail tolerated" if prior.torn_tail else "")
            )
    elif journal_path.exists():
        moved = quarantine_journal(journal_path)
        if moved is not None:
            emit(f"[journal] previous journal moved to {moved} (--fresh)")

    campaign_span = spans.begin(
        "campaign.run", campaign=spec.name, points=len(points), seed=seed
    )
    generation = prior.generations + 1
    # Default SLO specs, evaluated at merge time (pure) on the points that
    # run an experiment at its default settings: the thresholds were
    # written for those, so a swept point would read as a violation.
    _, slo_specs = slo_specs_by_experiment(
        sorted({p.experiment for p in points if not p.axes}), None, emit
    )
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes: Dict[str, PointOutcome] = {}  # key -> outcome
    point_of: Dict[str, CampaignPoint] = {p.key: p for p in points}

    def _finish(unit: Dispatch, result: Any) -> DoneFields:
        # Only the hash and the domain metrics outlive the call: a sweep
        # must not hold every driver result until it ends.
        point = point_of[unit.key]
        domain = slo_mod.domain_metrics(point.experiment, result)
        slo_rows = [] if point.axes else slo_mod.evaluate_specs(
            slo_specs.get(point.experiment, []), {point.experiment: domain}
        )
        outcomes[point.key] = PointOutcome(
            point=point,
            cached=unit.cached,
            replayed=unit.cached and unit.key in prior.done,
            result_sha256=result_sha256(result),
            wall_s=unit.wall_s,
            attempts=unit.attempts,
            domain=domain,
            slo_rows=slo_rows,
        )
        if not slo_rows:
            return None
        return {"slo_violated": _violated(slo_rows)}

    # One descriptor for the whole generation, closed however it ends.
    with CampaignJournal(journal_path, start_seq=prior.last_seq) as journal:
        pending, fault_events = probe(
            units,
            journal,
            cache=cache,
            assignment=assignment,
            emit=emit,
            finish=_finish,
            prior=prior,
            campaign=spec.name,
            spec_digest=spec.digest(),
            code_fingerprint=fingerprint,
            points=len(points),
            seed=seed,
            generation=generation,
            resume=bool(prior.records),
            jobs=worker_count(jobs, len(points)),
        )
        interrupted = dispatch(
            pending,
            _finish,
            noun="point",
            cache=cache,
            jobs=worker_count(jobs, len(pending)),
            seed=seed,
            retries=retries,
            task_timeout_s=task_timeout_s,
            root_span=campaign_span,
            emit=emit,
            journal=journal,
            heartbeat_s=heartbeat_s,
        )
        if interrupted:
            emit("[interrupt] signal received; journal preserved for --resume")
        for point, unit in zip(points, units):
            record = prior.quarantined.get(point.key)
            if record is not None:
                outcomes[point.key] = PointOutcome(
                    point=point,
                    status="quarantined",
                    replayed=True,
                    attempts=int(record.get("attempts", 0) or 0),
                    error=str(record.get("error", "quarantined")),
                )
            elif unit.failure_kind not in (None, "interrupted"):
                outcomes[point.key] = PointOutcome(
                    point=point,
                    status="quarantined",
                    attempts=unit.attempts,
                    error=f"{unit.failure_kind}: {unit.error}",
                )

        ordered_outcomes = [
            outcomes[point.key] for point in points if point.key in outcomes
        ]
        wall_s = time.perf_counter() - started
        ok_count = sum(1 for o in ordered_outcomes if o.ok)
        quarantined_count = len(ordered_outcomes) - ok_count
        journal.append(
            "campaign.interrupted" if interrupted else "campaign.done",
            campaign=spec.name,
            ok=ok_count,
            quarantined=quarantined_count,
            cache_hits=sum(1 for o in ordered_outcomes if o.cached),
            slo_violated=sum(_violated(o.slo_rows) for o in ordered_outcomes),
            wall_s=round(wall_s, 3),
        )
    spans.end(
        campaign_span,
        ok=ok_count,
        quarantined=quarantined_count,
        interrupted=interrupted,
    )
    return CampaignResult(
        spec=spec,
        seed=seed,
        code_fingerprint=fingerprint,
        outcomes=ordered_outcomes,
        journal_path=str(journal_path),
        manifest={} if interrupted else build_manifest(
            spec, fingerprint, ordered_outcomes
        ),
        wall_s=wall_s,
        interrupted=interrupted,
        generations=generation,
        journal_dropped=prior.dropped,
        journal_quarantined=journal_quarantined,
        fault_events=fault_events,
    )


def _violated(rows: List[Dict[str, Any]]) -> int:
    """How many evaluated SLO objective rows are violated."""
    return sum(1 for row in rows if row["status"] == "violated")
