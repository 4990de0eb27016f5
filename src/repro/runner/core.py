"""The orchestrator: plan, cache-check, fan out, merge, shape-check.

:func:`run_all` regenerates any subset of the paper's 17 registry
experiments in one call:

1. **Plan** — each experiment becomes one task, or several independent
   part tasks when its :class:`~repro.experiments.registry.ExperimentSpec`
   declares a sweep decomposition (Fig 5 by threshold, Fig 6 by scheme,
   Fig 14 by home, ...).
2. **Cache check** — every task's :func:`~repro.runner.cache.cache_key`
   is probed against the content-addressed store by
   :func:`repro.campaign.manager.probe`, the probe campaigns use; hits
   replay instantly, corrupt entries are quarantined and re-executed.
3. **Execute** — remaining tasks fan out over a
   ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` workers), slowest
   runtime class first so the pool drains evenly, and each result is
   stored in the cache as it lands. ``jobs=1`` runs the same plan
   in-process; both modes produce byte-identical results because every
   task builds its own simulator from the same seed.
4. **Merge + check** — part results are merged in canonical order and the
   experiment's shape check validates the paper's headline claim.

Execution goes through :func:`repro.campaign.manager.dispatch`, the
scheduler campaigns use too, which hardens it against worker failure
(this is the layer the chaos CI job beats on, see ``docs/robustness.md``):

* a **watchdog** enforces ``task_timeout_s`` per task — a hung worker is
  terminated with its pool and the innocent in-flight tasks are requeued
  uncharged;
* failures retry up to ``retries`` extra attempts, with per-part attempt
  counts recorded for the manifest; injected fault directives are stripped
  before requeue, so retried attempts run clean (a poisoned task's do not);
* a **BrokenProcessPool** (worker killed by the OS, by a crash fault, or
  by the OOM killer) rebuilds the pool and requeues what never finished;
* SIGINT/SIGTERM degrade gracefully: the run stops submitting, marks
  unfinished tasks ``interrupted``, and returns a partial
  :class:`RunAllResult` the CLI still flushes as a valid manifest. A
  second signal aborts hard.

Progress goes to the caller's campaign journal (``run_journal.jsonl`` from
the CLI), the log ``repro watch`` folds. Per-task wall-clock,
retry/failure and cache hit/miss/corrupt counts flow
through the shared ``repro.obs`` metrics registry (``runner.*``
instruments); the caller gets a :class:`RunAllResult` from which
``run_manifest.json`` is rendered (:mod:`repro.runner.manifest`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    RUNTIME_CLASSES,
    SPECS,
    ExperimentSpec,
    get_spec,
    normalize_experiment_id,
    resolve_target,
)
from repro.experiments.shapecheck import verdict
from repro.faults.plan import FaultPlan
from repro.obs import runtime as obs_runtime
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    code_fingerprint,
    result_sha256,
)
from repro.runner.tasks import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.campaign.manager import Dispatch


@dataclass
class ExperimentRun:
    """Outcome of one experiment: merged result plus per-part records."""

    id: str
    runtime: str
    seed: Optional[int]
    #: One scheduler unit per task (a sweep part, or ``all``): cache hit,
    #: attempts, failure, driver wall and engine profile.
    parts: List[Dispatch]
    result: Any = None
    result_sha256: str = ""
    duration_s: float = 0.0
    cache_hit: bool = False
    shape_ok: Optional[bool] = None
    shape_detail: str = ""
    error: Optional[str] = None
    #: Domain metric streams extracted from the merged result
    #: (:func:`repro.obs.slo.domain_metrics`); ``{}`` when the experiment
    #: failed or has no extractor. Cache hits still carry domain metrics —
    #: extraction runs on the loaded result, not on execution.
    domain: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Ran without error and passed (or had no) shape check."""
        return self.error is None and self.shape_ok is not False


@dataclass
class RunAllResult:
    """Everything one ``run-all`` invocation produced."""

    runs: List[ExperimentRun]
    jobs: int
    seed: int
    cache_enabled: bool
    cache_dir: Optional[str]
    code_fingerprint: str
    wall_s: float = 0.0
    #: Span records produced by this invocation (root ``runner.run_all``
    #: plus everything recorded, adopted, or synthesized beneath it).
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Extra attempts allowed per task (the ``--retries`` setting).
    retries: int = 0
    #: Watchdog limit per task in seconds (``None`` = no watchdog).
    task_timeout_s: Optional[float] = None
    #: Whether SIGINT/SIGTERM cut the run short (the result is then
    #: partial: unfinished tasks carry ``failure_kind="interrupted"``).
    interrupted: bool = False
    #: Compact description of the injected fault plan (``None`` when the
    #: run was fault-free).
    fault_plan: Optional[str] = None
    #: One record per fault binding/firing this run observed.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Cache keys quarantined as corrupt during the probe phase.
    quarantined: List[str] = field(default_factory=list)
    #: Span records lost to retention caps (parent recorder + workers).
    spans_dropped: int = 0
    #: Evaluated SLO objective rows, sorted by (experiment, id); the
    #: manifest's ``slo`` section is assembled from these.
    slo_rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Paths of the SLO specs that produced :attr:`slo_rows`.
    slo_spec_paths: List[str] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        """Experiments served entirely from cache."""
        return sum(1 for run in self.runs if run.cache_hit)

    @property
    def ok(self) -> bool:
        """Whether every experiment ran and shape-checked clean."""
        return all(run.ok for run in self.runs)

    def run_for(self, experiment_id: str) -> ExperimentRun:
        """Lookup of one experiment's run record."""
        for run in self.runs:
            if run.id == experiment_id:
                return run
        raise KeyError(experiment_id)


@dataclass
class _Planned:
    """One experiment's task list plus how to reassemble the result."""

    spec: ExperimentSpec
    seed: Optional[int]
    tasks: List[TaskSpec]
    keys: List[str]
    merge: Optional[Callable[[Sequence[Any]], Any]]
    #: Planning failure (broken target/sweep reference); recorded on the
    #: experiment's run instead of sinking the whole invocation.
    error: Optional[str] = None


def _plan_experiment(spec: ExperimentSpec, seed: int, fingerprint: str) -> _Planned:
    """Decompose one experiment into tasks and compute their cache keys."""
    try:
        return _plan_tasks(spec, seed, fingerprint)
    except ConfigurationError as exc:
        return _Planned(
            spec=spec, seed=None, tasks=[], keys=[], merge=None, error=str(exc)
        )


def _plan_tasks(spec: ExperimentSpec, seed: int, fingerprint: str) -> _Planned:
    if spec.sweep is not None:
        factory = resolve_target(spec.sweep)
        sweep_plan = factory(seed)
        tasks = [
            TaskSpec(
                experiment_id=spec.id,
                part=part.name,
                target=part.target,
                kwargs=dict(part.kwargs),
                seed=seed if "seed" in part.kwargs else None,
            )
            for part in sweep_plan.parts
        ]
        merge: Optional[Callable[[Sequence[Any]], Any]] = sweep_plan.merge
    else:
        accepts_seed = spec.accepts_seed()
        kwargs: Dict[str, Any] = {"seed": seed} if accepts_seed else {}
        tasks = [
            TaskSpec(
                experiment_id=spec.id,
                part="all",
                target=spec.target,
                kwargs=kwargs,
                seed=seed if accepts_seed else None,
            )
        ]
        merge = None
    keys = [
        cache_key(t.experiment_id, t.part, t.target, t.kwargs, t.seed, fingerprint)
        for t in tasks
    ]
    return _Planned(
        spec=spec,
        seed=seed if any(t.seed is not None for t in tasks) else None,
        tasks=tasks,
        keys=keys,
        merge=merge,
    )


def resolve_ids(ids: Optional[Sequence[str]]) -> List[str]:
    """Normalise a user id list to canonical registry order.

    ``None`` selects every registered experiment. Unknown ids raise
    :class:`~repro.errors.ConfigurationError`; duplicates collapse.
    """
    if ids is None:
        return list(SPECS)
    requested = []
    for raw in ids:
        key = normalize_experiment_id(raw.strip())
        if key not in SPECS:
            raise ConfigurationError(
                f"unknown experiment {raw!r}; known: {sorted(SPECS)}"
            )
        if key not in requested:
            requested.append(key)
    return [key for key in SPECS if key in requested]


def run_all(
    ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: str = DEFAULT_CACHE_DIR,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    retries: int = 0,
    task_timeout_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    journal: Optional[Any] = None,
    slo_specs: Optional[Sequence[Any]] = None,
) -> RunAllResult:
    """Regenerate the selected experiments, in parallel and cached.

    Parameters
    ----------
    ids:
        Experiment ids to run (``None`` = all 17). Ids tolerate zero
        padding exactly like the single-experiment CLI.
    jobs:
        Worker processes. ``None`` uses ``os.cpu_count()``; the effective
        count never exceeds the number of pending tasks, and ``1`` runs
        everything in-process (no pool).
    use_cache:
        ``False`` neither reads nor writes ``.repro_cache/``.
    cache_dir:
        Cache root (``.repro_cache`` by default).
    seed:
        Master seed handed to every seed-accepting driver.
    progress:
        Optional callback receiving one structured line per completed
        task and per completed experiment (the CLI passes ``print``).
    retries:
        Extra attempts per task after a failure (crash, raise, timeout,
        broken pool). ``0`` preserves fail-fast-per-task behaviour.
    task_timeout_s:
        Watchdog limit on one task's wall clock. Exceeding it counts the
        attempt as ``timeout``, terminates the worker pool, requeues the
        innocent in-flight tasks uncharged, and retries the culprit if
        attempts remain. ``None`` (default) disables the watchdog; it is
        also ignored in-process (``jobs=1`` cannot preempt itself).
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` whose infrastructure
        directives are deterministically bound to tasks and detonated
        during execution, the campaign ones included. Tasks carrying a
        directive other than ``cache.corrupt`` are forced to execute even
        on a warm cache (a fault that never fires tests nothing); retried
        attempts run clean, except a poisoned task's.
    journal:
        A :class:`~repro.campaign.journal.CampaignJournal` to record
        progress in, as a one-seed campaign named ``run-all`` (what
        ``repro watch`` renders): the unit roster on ``campaign.open``,
        every lease, heartbeat, retry and result, one ``experiment.slo``
        per merged experiment with SLO specs, and ``campaign.done`` (or
        ``campaign.interrupted``). ``None`` (default) journals nowhere. The
        journal never influences execution or results.
    slo_specs:
        :class:`~repro.obs.slo.SloSpec` objects to evaluate against each
        experiment's domain metrics as it merges. ``None`` (default) loads
        the registry-declared default spec of every selected experiment
        (missing spec files are skipped); pass ``[]`` to disable SLO
        evaluation entirely. Evaluation is pure observation — it never
        changes results, hashes, or the run's exit status.
    """
    # Imported here, not at module level: the campaign package imports
    # repro.runner, and code that only executes tasks (the DES benchmark
    # workloads import repro.runner.tasks) should not pay for loading it.
    from repro.campaign import manager
    from repro.campaign.journal import RUN_ALL_CAMPAIGN, CampaignJournal

    if journal is None:
        with CampaignJournal(os.devnull) as sink:
            return run_all(
                ids=ids, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                seed=seed, progress=progress, retries=retries,
                task_timeout_s=task_timeout_s, fault_plan=fault_plan,
                journal=sink, slo_specs=slo_specs,
            )

    started = time.perf_counter()
    ordered_ids = resolve_ids(ids)
    fingerprint = code_fingerprint()
    cache = ResultCache(cache_dir) if use_cache else None
    registry = obs_runtime.get_registry()
    spans = obs_runtime.get_spans()
    emit = progress or (lambda line: None)
    retries = max(0, int(retries))

    # Everything this invocation records nests under one root span; spans
    # already present on the recorder (earlier runs in this process) are
    # excluded from the returned records by id.
    prior_ids = {record["span_id"] for record in spans.to_records()}
    root_span = spans.begin(
        "runner.run_all", experiments=len(ordered_ids), seed=seed
    )

    planned = [_plan_experiment(get_spec(key), seed, fingerprint) for key in ordered_ids]

    # Resolve the SLO specs up front so a malformed default surfaces as a
    # progress warning, never as a failed run (explicit specs are validated
    # by the CLI before reaching here).
    from repro.obs import slo as slo_mod

    slo_specs, specs_by_experiment = manager.slo_specs_by_experiment(
        ordered_ids, slo_specs, emit
    )
    slo_rows: List[Dict[str, Any]] = []

    # Cache probe: hits load immediately, misses queue for execution.
    results: Dict[str, Any] = {}  # key -> part result

    def _finish(unit: manager.Dispatch, value: Any) -> None:
        results[unit.key] = value

    units_of = [
        [
            manager.Dispatch(task=task, key=key, part_label=task.part)
            for task, key in zip(plan.tasks, plan.keys)
        ]
        for plan in planned
    ]
    units = [unit for plan_units in units_of for unit in plan_units]
    pending, fault_events = manager.probe(
        units,
        journal,
        cache=cache,
        fault_plan=fault_plan,
        emit=emit,
        finish=_finish,
        campaign=RUN_ALL_CAMPAIGN,
        code_fingerprint=fingerprint,
        points=len(units),
        seed=seed,
        generation=1,
        resume=False,
        jobs=manager.worker_count(jobs, len(units)),
    )

    # Longest-processing-time-first: slow experiments enter the pool first
    # so the run's tail is not one straggler on an otherwise idle pool.
    rank = {plan.spec.id: RUNTIME_CLASSES.index(plan.spec.runtime) for plan in planned}
    pending.sort(key=lambda state: -rank[state.task.experiment_id])
    effective_jobs = manager.worker_count(jobs, len(pending))

    interrupted = manager.dispatch(
        pending,
        _finish,
        noun="task",
        cache=cache,
        jobs=effective_jobs,
        seed=seed,
        retries=retries,
        task_timeout_s=task_timeout_s,
        root_span=root_span,
        emit=emit,
        journal=journal,
    )
    if interrupted:
        emit("[interrupt] signal received; flushing partial results")

    # Merge parts, shape-check, and assemble the per-experiment records.
    runs: List[ExperimentRun] = []
    for index, (plan, parts) in enumerate(zip(planned, units_of), start=1):
        run = ExperimentRun(
            id=plan.spec.id,
            runtime=plan.spec.runtime,
            seed=plan.seed,
            parts=parts,
            duration_s=sum(unit.wall_s for unit in parts),
            cache_hit=bool(parts) and all(unit.cached for unit in parts),
        )
        failed = [unit for unit in parts if unit.error is not None]
        if plan.error is not None:
            run.error = plan.error
        elif failed:
            run.error = "; ".join(
                f"{unit.task.part}: {unit.error}" for unit in failed
            )
        else:
            part_results = [results[key] for key in plan.keys]
            run.result = (
                plan.merge(part_results) if plan.merge is not None else part_results[0]
            )
            run.result_sha256 = result_sha256(run.result)
            run.shape_ok, run.shape_detail = verdict(run.id, run.result)
            run.domain = slo_mod.domain_metrics(run.id, run.result)
        runs.append(run)
        # Online SLO evaluation: verdicts are journaled the moment the
        # experiment merges, so `repro watch` shows SLO state mid-run.
        experiment_specs = specs_by_experiment.get(run.id, [])
        if experiment_specs:
            rows = slo_mod.evaluate_specs(
                experiment_specs,
                {run.id: run.domain},
                errors={run.id: run.error},
            )
            slo_rows.extend(rows)
            statuses = [row["status"] for row in rows]
            violated = statuses.count("violated")
            if violated:
                emit(
                    f"[slo] {run.id}: {violated}/{len(rows)} objective(s) violated"
                )
            journal.append(
                "experiment.slo",
                experiment=run.id,
                ok=statuses.count("ok"),
                violated=violated,
                skipped=statuses.count("skipped"),
                objectives=[
                    {"id": row["id"], "status": row["status"], "margin": row["margin"]}
                    for row in rows
                ],
            )
        status = "ok" if run.ok else "FAIL"
        source = "hit" if run.cache_hit else ("partial" if any(u.cached for u in parts) else "run")
        emit(
            f"[{index}/{len(planned)}] {run.id:<7} {status:<4} cache={source:<7} "
            f"{run.duration_s:7.2f}s  {run.error or run.shape_detail}"
        )

    wall_s = time.perf_counter() - started
    registry.gauge("runner.run.wall_s").set(wall_s)
    registry.gauge("runner.run.experiments").set(len(runs))
    ok_count = sum(1 for run in runs if run.ok)
    spans.end(
        root_span, ok=ok_count, failed=len(runs) - ok_count, interrupted=interrupted
    )
    run_spans = [
        record
        for record in spans.to_records()
        if record["span_id"] not in prior_ids
    ]
    slo_rows.sort(key=lambda row: (row["experiment"], row["id"]))
    journal.append(
        "campaign.interrupted" if interrupted else "campaign.done",
        campaign=RUN_ALL_CAMPAIGN,
        ok=ok_count,
        failed=len(runs) - ok_count,
        cache_hits=sum(1 for run in runs if run.cache_hit),
        wall_s=round(wall_s, 3),
        spans_dropped=spans.dropped,
        slo_violated=sum(1 for row in slo_rows if row["status"] == "violated"),
    )
    return RunAllResult(
        runs=runs,
        jobs=effective_jobs,
        seed=seed,
        cache_enabled=use_cache,
        cache_dir=str(cache_dir) if use_cache else None,
        code_fingerprint=fingerprint,
        wall_s=wall_s,
        spans=run_spans,
        retries=retries,
        task_timeout_s=task_timeout_s,
        interrupted=interrupted,
        fault_plan=fault_plan.describe() if fault_plan is not None else None,
        fault_events=fault_events,
        quarantined=list(cache.quarantine_events) if cache is not None else [],
        spans_dropped=spans.dropped,
        slo_rows=slo_rows,
        slo_spec_paths=[spec.path for spec in slo_specs],
    )
